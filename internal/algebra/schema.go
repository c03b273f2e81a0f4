package algebra

import (
	"slices"

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
// Whether a plan runs is decided here, once: an operator the resolver cannot
// type — an unknown extension, a colliding layout, a key, group or unnest
// attribute its input does not bind, a µD over an untracked payload — has
// Node.OK = false, and so has everything above it. No opener declines later:
// an unresolved plan is refused when it is opened (see Node.Pump), before it
// produces anything, and every compiled plan resolves.

// Schema is the resolved output type of one operator.
type Schema struct {
	// Lay assigns the operator's output attributes to slots.
	Lay *value.Layout
	// Nested holds the inner schemas of tuple-sequence-valued attributes,
	// keyed by attribute name, when statically known.
	Nested map[string]*Inner
}

// Inner is the schema of a tuple-sequence-valued attribute — a schema like
// an operator's: the member layout plus, recursively, the inner schemas of
// the members' own sequence-valued attributes. The recursion is what lets
// nested-in-nested plans (Γ under µ — the outer payload's members carrying
// their own group attribute) resolve: unnesting releases not just the member
// attributes but their nested schemas too.
type Inner = Schema

func (s Schema) nested(attr string) *Inner { return s.Nested[attr] }

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
		return &in
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
// expression produces, when statically known. subs are the resolved plans of
// e's nested algebraic expressions, in planList order.
func exprNested(e Expr, in Schema, subs []*Node) *Inner {
	switch w := e.(type) {
	case Var:
		return in.nested(w.Name)
	case BindTuples:
		return &Inner{Lay: value.NewLayout(w.Attr)}
	case NestedApply:
		if !subs[0].OK {
			return nil
		}
		return fnNested(w.F, subs[0].Schema)
	case CondExpr:
		var cond, then planList
		cond.expr(w.If)
		then.expr(w.Then)
		subs = subs[len(cond.plans):]
		t := exprNested(w.Then, in, subs)
		f := exprNested(w.Else, in, subs[len(then.plans):])
		if t != nil && f != nil && slices.Equal(t.Lay.Names(), f.Lay.Names()) {
			return t
		}
		return nil
	default:
		return nil
	}
}

// planList gathers the plans of the nested algebraic expressions in an
// operator's subscripts — NestedApply, ∃ and ∀ ranges; a plan's own nested
// expressions belong to its own nodes — in the order the expression compiler
// (compile.go) takes them: an expression before its sequence function, a
// range before its predicate, operands left to right.
type planList struct {
	plans []Op
	in    []Expr // the nested expression holding each plan
	// unknown: a subscript holds an expression or sequence function outside
	// the engine's inventory, or a projection no row can carry.
	unknown bool
}

// nestedIn gathers the nested plans in an operator's Exprs().
func nestedIn(o Op) planList {
	var l planList
	for _, e := range o.Exprs() {
		l.expr(e)
	}
	return l
}

func (l *planList) expr(e Expr) {
	switch w := e.(type) {
	case nil:
		return
	case NestedApply:
		l.plans, l.in = append(l.plans, w.Plan), append(l.in, e)
		l.fn(w.F)
	case ExistsQ:
		l.plans, l.in = append(l.plans, w.Range), append(l.in, e)
	case ForallQ:
		l.plans, l.in = append(l.plans, w.Range), append(l.in, e)
	case AggOfAttr:
		l.expr(w.Attr)
		l.fn(w.F)
		return
	case Var, ConstVal, Param, Doc, PathOf, CmpExpr, InExpr, AndExpr, OrExpr,
		NotExpr, CondExpr, ArithExpr, Call, BindTuples:
	default:
		// Not a form scope.expr compiles.
		l.unknown = true
	}
	for i := 0; ; i++ {
		c := e.Child(i)
		if c == nil {
			return
		}
		l.expr(c)
	}
}

func (l *planList) fn(f SeqFunc) {
	switch w := f.(type) {
	case SFIdent, SFCount, SFAgg:
	case SFProject:
		if lay := value.NewLayout(w.Attrs...); lay == nil || lay.Width() == 0 {
			l.unknown = true
		}
	case SFFiltered:
		l.expr(w.Pred)
		l.fn(w.Inner)
	default:
		l.unknown = true
	}
}

// Node is one operator of a resolved plan: the operator, its output schema
// and the nodes of its algebraic inputs, in Children() order. A resolved
// tree is immutable — layouts and nested-schema maps are never written
// after Resolve returns — so any number of runs may open it concurrently.
type Node struct {
	Op     Op
	Schema Schema
	// OK is false when the engine cannot run the operator: it, one of its
	// inputs or one of its nested plans has no schema (see resolve).
	OK   bool
	Kids []*Node
	// subs are the resolved plans of the nested algebraic expressions in the
	// operator's subscripts, in planList order: resolved once with the plan,
	// opened once per outer tuple.
	subs []*Node
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
// means the engine cannot type, and so cannot run, the plan.
func ResolveSchema(op Op) (Schema, bool) {
	n := Resolve(op)
	return n.Schema, n.OK
}

// nest resolves the plans gathered from the operator's subscripts as the
// node's sub-plans; false when a subscript is outside the engine's inventory
// or a sub-plan does not resolve.
func (n *Node) nest(l planList) bool {
	ok := !l.unknown
	for _, p := range l.plans {
		sub := Resolve(p)
		n.subs = append(n.subs, sub)
		ok = ok && sub.OK
	}
	return ok
}

// unresolved returns the lowest operator at or under n that the resolver
// could not type: the one to name when the plan is refused.
func (n *Node) unresolved() *Node {
	for _, group := range [][]*Node{n.Kids, n.subs} {
		for _, k := range group {
			if !k.OK {
				return k.unresolved()
			}
		}
	}
	return n
}

// hasAll reports whether the layout binds every name.
func hasAll(lay *value.Layout, names []string) bool {
	for _, name := range names {
		if !lay.Has(name) {
			return false
		}
	}
	return true
}

// resolve is the schema rule of one operator over its inputs' schemas, and
// the one place that decides whether the operator can run: everything an
// opener relies on — inputs and nested plans typed, key, group and unnest
// attributes bound, layouts concatenable — is checked here.
func (n *Node) resolve() (Schema, bool) {
	for _, k := range n.Kids {
		if !k.OK {
			return Schema{}, false
		}
	}
	if !n.nest(nestedIn(n.Op)) {
		return Schema{}, false
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
		return typed(value.NewLayout(), nil)

	case Select, XiSimple:
		return typed(in.Lay, in.Nested)

	case XiGroup:
		if hasAll(in.Lay, w.By) {
			return typed(in.Lay, in.Nested)
		}
	case Sort:
		if hasAll(in.Lay, w.By) {
			return typed(in.Lay, in.Nested)
		}

	case Project:
		if lay := value.NewLayout(w.Names...); lay != nil {
			return typed(lay, nestedKept(in.Nested, lay))
		}

	case ProjectDrop:
		lay, _ := in.Lay.Drop(w.Names)
		return typed(lay, nestedKept(in.Nested, lay))

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
			return typed(lay, nested)
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
			return typed(lay, nested)
		}

	case Map:
		lay, _ := in.Lay.Extend(w.Attr)
		return typed(lay, nestedWith(in.Nested, w.Attr, exprNested(w.E, in, n.subs)))

	case UnnestMap:
		lay, _ := in.Lay.Extend(w.Attr)
		if w.PosAttr != "" {
			lay, _ = lay.Extend(w.PosAttr)
		}
		// Υ binds items, never tuple sequences.
		return typed(lay, nestedWith(in.Nested, w.Attr, nil))

	case IndexScan:
		lay, _ := in.Lay.Extend(w.Attr)
		// An index scan binds nodes, never tuple sequences.
		return typed(lay, nestedWith(in.Nested, w.Attr, nil))

	case Cross, Join:
		return concat(in, r)
	case OuterJoin:
		return outer(in, r, w.G, w.Default)

	// ⋉ and ▷ emit left rows but compile their predicate against l ◦ r.
	case SemiJoin, AntiJoin:
		if _, ok := in.Lay.Concat(r.Lay); ok {
			return typed(in.Lay, in.Nested)
		}

	case GroupSelf:
		if hasAll(in.Lay, w.By) {
			return n.groupInto(in, in, w.G, w.F)
		}
	case GroupBinary:
		if hasAll(in.Lay, w.LAttrs) && hasAll(r.Lay, w.RAttrs) {
			return n.groupInto(in, r, w.G, w.F)
		}

	case GroupUnary:
		return n.groupBy(in, w.By, w.G, w.F)

	case Unnest:
		return unnestSchema(in, w.Attr, w.InnerAttrs)
	case UnnestDistinct:
		return unnestSchema(in, w.Attr, nil)
	}
	// Unknown extensions included.
	return Schema{}, false
}

// concat types the operators that emit l ◦ r.
func concat(l, r Schema) (Schema, bool) {
	if lay, ok := l.Lay.Concat(r.Lay); ok {
		return typed(lay, nestedUnion(l.Nested, r.Nested))
	}
	return Schema{}, false
}

// outer types ⟕: l ◦ r, where a left tuple without partner gets f() — a
// sequence function of the engine's inventory — in g, an attribute the
// result binds.
func outer(l, r Schema, g string, f SeqFunc) (Schema, bool) {
	var def planList
	def.fn(f)
	if sc, ok := concat(l, r); ok && sc.Lay.Has(g) && !def.unknown {
		return sc, true
	}
	return Schema{}, false
}

// groupInto types the operators that extend every tuple of l by a group
// attribute g holding f over tuples of members (Γ-self: l itself; binary Γ:
// the right input). g must be fresh.
func (n *Node) groupInto(l, members Schema, g string, f SeqFunc) (Schema, bool) {
	var fn planList
	fn.fn(f)
	if lay, slot := l.Lay.Extend(g); n.nest(fn) && slot == l.Lay.Width() {
		return typed(lay, nestedWith(l.Nested, g, fnNested(f, members)))
	}
	return Schema{}, false
}

// groupBy types unary Γ: the grouping attributes followed by g.
func (n *Node) groupBy(in Schema, by []string, g string, f SeqFunc) (Schema, bool) {
	var fn planList
	fn.fn(f)
	if lay := value.NewLayout(append(append([]string(nil), by...), g)...); n.nest(fn) && lay != nil && hasAll(in.Lay, by) {
		return typed(lay, nestedWith(nestedKept(in.Nested, lay), g, fnNested(f, in)))
	}
	return Schema{}, false
}

// unnestSchema types µ/µD: the input minus the group attribute, extended by
// the group's inner layout. The inner layout comes from the operator hint
// (InnerAttrs) or from the resolver's nested-attribute tracking. Inner
// attributes that collide with kept input attributes share the slot (the
// group tuple wins, matching Concat's map semantics — e.g. µ over Γ, where
// the grouping key reappears inside the group members).
func unnestSchema(insc Schema, attr string, innerAttrs []string) (Schema, bool) {
	inner := insc.nested(attr)
	if innerAttrs != nil {
		inner = &Inner{Lay: value.NewLayout(innerAttrs...)}
	}
	if inner != nil && inner.Lay != nil && insc.Lay.Has(attr) {
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
			// resolve. On a name collision the group side wins, matching
			// Concat's map semantics.
			return typed(lay, nestedUnion(nestedKept(insc.Nested, base),
				nestedKept(inner.Nested, lay)))
		}
	}
	return Schema{}, false
}

// typed is the schema of an operator the resolver could type.
func typed(lay *value.Layout, nested map[string]*Inner) (Schema, bool) {
	return Schema{Lay: lay, Nested: nested}, true
}
