package algebra

import (
	"nalquery/internal/value"
)

// This file implements the plan-time schema-resolution pass of the slot
// engine. Resolve walks an operator tree bottom-up, once, and assigns every
// operator an output Layout — a fixed attribute→slot mapping — so that
// execution can read and write slices instead of rebuilding Go maps per
// tuple. The result is a tree of Nodes the iterators open from.
//
// Besides the flat layout, the resolver tracks the layouts of
// tuple-sequence-valued attributes (group attributes created by Γ, the e[a]
// constructor, nested query blocks): µ and µD need them to assign slots to
// the attributes that unnesting releases, and ⊥-padding of empty groups
// needs them before the first non-empty group is seen.
//
// Resolution is best-effort: an operator the resolver cannot type
// structurally still resolves through its static attribute set (Attrs) and
// is materialized by the definitional evaluator behind a conversion shim
// (Schema.Native = false). A subtree whose attribute set is statically
// unknown does not resolve at all (Node.OK = false); the nearest resolvable
// ancestor — or the plan root (see Node.Pump) — evaluates it definitionally
// the same way.

// Schema is the resolved output type of one operator.
type Schema struct {
	// Lay assigns the operator's output attributes to slots.
	Lay *value.Layout
	// Nested holds the inner schemas of tuple-sequence-valued attributes,
	// keyed by attribute name, when statically known.
	Nested map[string]*Inner
	// Native reports that the operator has a slot-native iterator under this
	// schema; otherwise it executes through the fallback shim.
	Native bool
}

// Inner is the schema of a tuple-sequence-valued attribute: the member
// layout plus, recursively, the inner schemas of the members' own
// sequence-valued attributes. The recursion is what lets nested-in-nested
// plans (Γ under µ — the outer payload's members carrying their own group
// attribute) resolve natively: unnesting releases not just the member
// attributes but their nested schemas too.
type Inner struct {
	Lay    *value.Layout
	Nested map[string]*Inner
}

func (s Schema) nested(attr string) *Inner {
	if s.Nested == nil {
		return nil
	}
	return s.Nested[attr]
}

// nestedWith returns a copy of the nested map with one entry replaced (or
// removed when in is nil).
func nestedWith(src map[string]*Inner, attr string, in *Inner) map[string]*Inner {
	out := make(map[string]*Inner, len(src)+1)
	for k, v := range src {
		out[k] = v
	}
	if in == nil {
		delete(out, attr)
	} else {
		out[attr] = in
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// nestedKept filters a nested map to the attributes of a layout.
func nestedKept(src map[string]*Inner, lay *value.Layout) map[string]*Inner {
	if src == nil {
		return nil
	}
	var out map[string]*Inner
	for k, v := range src {
		if lay.Has(k) {
			if out == nil {
				out = map[string]*Inner{}
			}
			out[k] = v
		}
	}
	return out
}

func nestedUnion(a, b map[string]*Inner) map[string]*Inner {
	if a == nil && b == nil {
		return nil
	}
	out := make(map[string]*Inner, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// fnNested returns the inner schema of the tuple sequence a SeqFunc
// produces when applied to groups drawn from tuples of the input schema.
func fnNested(f SeqFunc, in Schema) *Inner {
	switch w := f.(type) {
	case SFIdent:
		return &Inner{Lay: in.Lay, Nested: in.Nested}
	case SFProject:
		if lay := value.NewLayout(w.Attrs...); lay != nil {
			return &Inner{Lay: lay, Nested: nestedKept(in.Nested, lay)}
		}
		return nil
	case SFFiltered:
		return fnNested(w.Inner, in)
	default:
		// Aggregates (count, min, …) produce items, not tuple sequences.
		return nil
	}
}

// exprNested returns the inner schema of a tuple-sequence value an
// expression produces, when statically known.
func exprNested(e Expr, in Schema) *Inner {
	switch w := e.(type) {
	case Var:
		return in.nested(w.Name)
	case BindTuples:
		return &Inner{Lay: value.NewLayout(w.Attr)}
	case NestedApply:
		sub, ok := ResolveSchema(w.Plan)
		if !ok {
			return nil
		}
		return fnNested(w.F, sub)
	case CondExpr:
		t := exprNested(w.Then, in)
		f := exprNested(w.Else, in)
		if t != nil && f != nil && sameNames(t.Lay, f.Lay) {
			return t
		}
		return nil
	default:
		return nil
	}
}

func sameNames(a, b *value.Layout) bool {
	if a.Width() != b.Width() {
		return false
	}
	for i, n := range a.Names() {
		if b.Name(i) != n {
			return false
		}
	}
	return true
}

// Node is one operator of a resolved plan: the operator, its output schema
// and the nodes of its algebraic inputs, in Children() order. A resolved
// tree is immutable — layouts and nested-schema maps are never written
// after Resolve returns — so any number of runs may open it concurrently.
type Node struct {
	Op     Op
	Schema Schema
	// OK is false when the operator's attribute set is statically unknown:
	// the subtree has no schema and only the definitional evaluator applies.
	OK   bool
	Kids []*Node
}

// Resolve types an operator tree in one bottom-up pass: every operator is
// visited once and reads its inputs' already-resolved schemas.
func Resolve(op Op) *Node {
	n := &Node{Op: op}
	if cs := op.Children(); len(cs) > 0 {
		n.Kids = make([]*Node, len(cs))
		for i, c := range cs {
			n.Kids[i] = Resolve(c)
		}
	}
	n.Schema, n.OK = n.resolve()
	return n
}

// ResolveSchema computes the output schema of an operator tree. ok=false
// means the attribute set is statically unknown and the subtree can only be
// evaluated definitionally.
func ResolveSchema(op Op) (Schema, bool) {
	n := Resolve(op)
	return n.Schema, n.OK
}

// resolve is the schema rule of one operator over its inputs' schemas. An
// operator the rule cannot type structurally — an input without schema, a
// colliding layout, an unknown extension — is typed by its static attribute
// set and executes through the fallback shim.
func (n *Node) resolve() (Schema, bool) {
	for _, k := range n.Kids {
		if !k.OK {
			return genericSchema(n.Op)
		}
	}
	var in, r Schema // the first and second input
	if len(n.Kids) > 0 {
		in = n.Kids[0].Schema
	}
	if len(n.Kids) > 1 {
		r = n.Kids[1].Schema
	}
	//nal:opswitch schema
	switch w := n.Op.(type) {
	case Singleton:
		return nativeSchema(value.NewLayout(), nil)

	case Select, XiSimple, XiGroup, Sort:
		return nativeSchema(in.Lay, in.Nested)

	case Project:
		if lay := value.NewLayout(w.Names...); lay != nil {
			return nativeSchema(lay, nestedKept(in.Nested, lay))
		}

	case ProjectDrop:
		lay, _ := in.Lay.Drop(w.Names)
		return nativeSchema(lay, nestedKept(in.Nested, lay))

	case ProjectRename:
		ren := make(map[string]string, len(w.Pairs))
		for _, p := range w.Pairs {
			ren[p.Old] = p.New
		}
		if lay := in.Lay.Rename(ren); lay != nil {
			var nested map[string]*Inner
			for k, v := range in.Nested {
				if nested == nil {
					nested = map[string]*Inner{}
				}
				if nn, ok := ren[k]; ok {
					nested[nn] = v
				} else {
					nested[k] = v
				}
			}
			return nativeSchema(lay, nested)
		}

	case ProjectDistinct:
		names := make([]string, len(w.Pairs))
		var nested map[string]*Inner
		for i, p := range w.Pairs {
			names[i] = p.New
			if inner := in.nested(p.Old); inner != nil {
				if nested == nil {
					nested = map[string]*Inner{}
				}
				nested[p.New] = inner
			}
		}
		if lay := value.NewLayout(names...); lay != nil {
			return nativeSchema(lay, nested)
		}

	case Map:
		lay, _ := in.Lay.Extend(w.Attr)
		return nativeSchema(lay, nestedWith(in.Nested, w.Attr, exprNested(w.E, in)))

	case UnnestMap:
		lay, _ := in.Lay.Extend(w.Attr)
		if w.PosAttr != "" {
			lay, _ = lay.Extend(w.PosAttr)
		}
		// Υ binds items, never tuple sequences.
		return nativeSchema(lay, nestedWith(in.Nested, w.Attr, nil))

	case IndexScan:
		lay, _ := in.Lay.Extend(w.Attr)
		// An index scan binds nodes, never tuple sequences.
		return nativeSchema(lay, nestedWith(in.Nested, w.Attr, nil))

	// The unordered operator family types like its ordered counterparts:
	// concatenation for the joins, the left layout for ⋉/▷, key+group for Γ.
	case Cross, Join, OuterJoin, UnorderedJoin, UnorderedOuterJoin:
		if lay, ok := in.Lay.Concat(r.Lay); ok {
			return nativeSchema(lay, nestedUnion(in.Nested, r.Nested))
		}

	case SemiJoin, AntiJoin, UnorderedSemiJoin, UnorderedAntiJoin:
		return nativeSchema(in.Lay, in.Nested)

	case GroupSelf:
		return groupInto(n.Op, in, in, w.G, w.F)
	case GroupBinary:
		return groupInto(n.Op, in, r, w.G, w.F)
	case UnorderedGroupBinary:
		return groupInto(n.Op, in, r, w.G, w.F)

	case GroupUnary:
		return groupBy(n.Op, in, w.By, w.G, w.F)
	case UnorderedGroupUnary:
		return groupBy(n.Op, in, w.By, w.G, w.F)

	case Unnest:
		return unnestSchema(n.Op, in, w.Attr, w.InnerAttrs)
	case UnnestDistinct:
		return unnestSchema(n.Op, in, w.Attr, nil)
	}
	// Unknown extensions included.
	return genericSchema(n.Op)
}

// groupInto types the operators that extend every tuple of l by a group
// attribute g holding f over tuples of members (Γ-self: l itself; binary Γ:
// the right input). g must be fresh.
func groupInto(op Op, l, members Schema, g string, f SeqFunc) (Schema, bool) {
	if lay, slot := l.Lay.Extend(g); slot == l.Lay.Width() {
		return nativeSchema(lay, nestedWith(l.Nested, g, fnNested(f, members)))
	}
	return genericSchema(op)
}

// groupBy types unary Γ: the grouping attributes followed by g.
func groupBy(op Op, in Schema, by []string, g string, f SeqFunc) (Schema, bool) {
	if lay := value.NewLayout(append(append([]string(nil), by...), g)...); lay != nil {
		return nativeSchema(lay, nestedWith(nestedKept(in.Nested, lay), g, fnNested(f, in)))
	}
	return genericSchema(op)
}

// unnestSchema types µ/µD: the input minus the group attribute, extended by
// the group's inner layout. The inner layout comes from the operator hint
// (InnerAttrs) or from the resolver's nested-attribute tracking. Inner
// attributes that collide with kept input attributes share the slot (the
// group tuple wins, matching Concat's map semantics — e.g. µ over Γ, where
// the grouping key reappears inside the group members).
func unnestSchema(op Op, insc Schema, attr string, innerAttrs []string) (Schema, bool) {
	inner := insc.nested(attr)
	if innerAttrs != nil {
		inner = &Inner{Lay: value.NewLayout(innerAttrs...)}
	}
	if inner != nil && inner.Lay != nil {
		base, _ := insc.Lay.Drop([]string{attr})
		names := append([]string(nil), base.Names()...)
		for _, n := range inner.Lay.Names() {
			if !base.Has(n) {
				names = append(names, n)
			}
		}
		if lay := value.NewLayout(names...); lay != nil {
			// The released members' own nested schemas join the output's:
			// that is what makes Γ-under-µ (nested-in-nested payloads)
			// resolve natively. On a name collision the group side wins,
			// matching Concat's map semantics.
			return nativeSchema(lay, nestedUnion(nestedKept(insc.Nested, base),
				nestedKept(inner.Nested, lay)))
		}
	}
	return genericSchema(op)
}

// nativeSchema is the schema of an operator the slot engine types
// structurally.
func nativeSchema(lay *value.Layout, nested map[string]*Inner) (Schema, bool) {
	return Schema{Lay: lay, Nested: nested, Native: true}, true
}

// genericSchema types an operator by its static attribute set alone; the
// operator will execute through the definitional evaluator behind a
// conversion shim. Fails when the attribute set is unknown.
func genericSchema(op Op) (Schema, bool) {
	attrs, ok := op.Attrs()
	if !ok {
		return Schema{}, false
	}
	return Schema{Lay: value.SortedLayout(attrs), Native: false}, true
}
