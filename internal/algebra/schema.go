package algebra

import (
	"nalquery/internal/value"
)

// This file implements the plan-time schema-resolution pass of the slot
// engine. It walks an operator tree bottom-up and assigns every operator an
// output Layout — a fixed attribute→slot mapping — so that execution can
// read and write slices instead of rebuilding Go maps per tuple.
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
// unknown does not resolve at all; the nearest resolvable ancestor — or the
// plan root (see OpenIter) — evaluates it definitionally the same way.

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

// ResolveSchema computes the output schema of an operator tree. ok=false
// means the attribute set is statically unknown and the subtree can only be
// evaluated definitionally.
func ResolveSchema(op Op) (Schema, bool) {
	//nal:opswitch schema
	switch w := op.(type) {
	case Singleton:
		return Schema{Lay: value.NewLayout(), Native: true}, true

	case Select:
		in, ok := ResolveSchema(w.In)
		if !ok {
			return genericSchema(op)
		}
		return Schema{Lay: in.Lay, Nested: in.Nested, Native: true}, true

	case Project:
		if in, ok := ResolveSchema(w.In); ok {
			lay, src := in.Lay.Project(w.Names)
			if lay != nil && src != nil {
				return Schema{Lay: lay, Nested: nestedKept(in.Nested, lay), Native: true}, true
			}
		}
		return genericSchema(op)

	case ProjectDrop:
		if in, ok := ResolveSchema(w.In); ok {
			lay, _ := in.Lay.Drop(w.Names)
			return Schema{Lay: lay, Nested: nestedKept(in.Nested, lay), Native: true}, true
		}
		return genericSchema(op)

	case ProjectRename:
		if in, ok := ResolveSchema(w.In); ok {
			ren := make(map[string]string, len(w.Pairs))
			for _, r := range w.Pairs {
				ren[r.Old] = r.New
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
				return Schema{Lay: lay, Nested: nested, Native: true}, true
			}
		}
		return genericSchema(op)

	case ProjectDistinct:
		if in, ok := ResolveSchema(w.In); ok {
			names := make([]string, len(w.Pairs))
			var nested map[string]*Inner
			for i, r := range w.Pairs {
				names[i] = r.New
				if inner := in.nested(r.Old); inner != nil {
					if nested == nil {
						nested = map[string]*Inner{}
					}
					nested[r.New] = inner
				}
			}
			if lay := value.NewLayout(names...); lay != nil {
				return Schema{Lay: lay, Nested: nested, Native: true}, true
			}
		}
		return genericSchema(op)

	case Map:
		if in, ok := ResolveSchema(w.In); ok {
			lay, _ := in.Lay.Extend(w.Attr)
			return Schema{Lay: lay,
				Nested: nestedWith(in.Nested, w.Attr, exprNested(w.E, in)), Native: true}, true
		}
		return genericSchema(op)

	case UnnestMap:
		if in, ok := ResolveSchema(w.In); ok {
			lay, _ := in.Lay.Extend(w.Attr)
			if w.PosAttr != "" {
				lay, _ = lay.Extend(w.PosAttr)
			}
			// Υ binds items, never tuple sequences.
			return Schema{Lay: lay, Nested: nestedWith(in.Nested, w.Attr, nil), Native: true}, true
		}
		return genericSchema(op)

	case IndexScan:
		if in, ok := ResolveSchema(w.In); ok {
			lay, _ := in.Lay.Extend(w.Attr)
			// An index scan binds nodes, never tuple sequences.
			return Schema{Lay: lay, Nested: nestedWith(in.Nested, w.Attr, nil), Native: true}, true
		}
		return genericSchema(op)

	case XiSimple:
		if in, ok := ResolveSchema(w.In); ok {
			return Schema{Lay: in.Lay, Nested: in.Nested, Native: true}, true
		}
		return genericSchema(op)
	case XiGroupStream:
		if in, ok := ResolveSchema(w.In); ok {
			return Schema{Lay: in.Lay, Nested: in.Nested, Native: true}, true
		}
		return genericSchema(op)
	case XiGroup:
		if in, ok := ResolveSchema(w.In); ok {
			return Schema{Lay: in.Lay, Nested: in.Nested, Native: true}, true
		}
		return genericSchema(op)

	case Sort:
		if in, ok := ResolveSchema(w.In); ok {
			return Schema{Lay: in.Lay, Nested: in.Nested, Native: true}, true
		}
		return genericSchema(op)

	case AttachSeq:
		if in, ok := ResolveSchema(w.In); ok {
			lay, _ := in.Lay.Extend(w.Attr)
			return Schema{Lay: lay, Nested: in.Nested, Native: true}, true
		}
		return genericSchema(op)

	case Cross:
		return concatSchema(op, w.L, w.R)
	case Join:
		return concatSchema(op, w.L, w.R)
	case OuterJoin:
		return concatSchema(op, w.L, w.R)
	case SemiJoin:
		if l, ok := ResolveSchema(w.L); ok {
			if _, rok := ResolveSchema(w.R); rok {
				return Schema{Lay: l.Lay, Nested: l.Nested, Native: true}, true
			}
		}
		return genericSchema(op)
	case AntiJoin:
		if l, ok := ResolveSchema(w.L); ok {
			if _, rok := ResolveSchema(w.R); rok {
				return Schema{Lay: l.Lay, Nested: l.Nested, Native: true}, true
			}
		}
		return genericSchema(op)

	case GroupSelf:
		if in, ok := ResolveSchema(w.In); ok {
			lay, slot := in.Lay.Extend(w.G)
			if slot == in.Lay.Width() { // G must be fresh
				nested := nestedWith(in.Nested, w.G, fnNested(w.F, in))
				return Schema{Lay: lay, Nested: nested, Native: true}, true
			}
		}
		return genericSchema(op)

	case GroupUnary:
		if in, ok := ResolveSchema(w.In); ok {
			if lay := value.NewLayout(append(append([]string(nil), w.By...), w.G)...); lay != nil {
				nested := nestedWith(nestedKept(in.Nested, lay), w.G, fnNested(w.F, in))
				return Schema{Lay: lay, Nested: nested, Native: true}, true
			}
		}
		return genericSchema(op)

	case GroupBinary:
		l, lok := ResolveSchema(w.L)
		r, rok := ResolveSchema(w.R)
		if lok && rok {
			lay, slot := l.Lay.Extend(w.G)
			if slot == l.Lay.Width() { // G must be fresh
				nested := nestedWith(l.Nested, w.G, fnNested(w.F, r))
				return Schema{Lay: lay, Nested: nested, Native: true}, true
			}
		}
		return genericSchema(op)

	case Unnest:
		return unnestSchema(op, w.In, w.Attr, w.InnerAttrs)
	case UnnestDistinct:
		return unnestSchema(op, w.In, w.Attr, nil)

	// The partitioned operator family: output layouts mirror the ordered
	// counterparts (concatenation for the joins, left-side layout for ⋉ᵁ/▷ᵁ,
	// key+group for Γᵁ).
	case GraceJoin:
		return concatSchema(op, w.L, w.R)
	case OPHashJoin:
		return concatSchema(op, w.L, w.R)
	case UnorderedJoin:
		return concatSchema(op, w.L, w.R)
	case UnorderedOuterJoin:
		return concatSchema(op, w.L, w.R)
	case UnorderedSemiJoin:
		if l, ok := ResolveSchema(w.L); ok {
			if _, rok := ResolveSchema(w.R); rok {
				return Schema{Lay: l.Lay, Nested: l.Nested, Native: true}, true
			}
		}
		return genericSchema(op)
	case UnorderedAntiJoin:
		if l, ok := ResolveSchema(w.L); ok {
			if _, rok := ResolveSchema(w.R); rok {
				return Schema{Lay: l.Lay, Nested: l.Nested, Native: true}, true
			}
		}
		return genericSchema(op)
	case UnorderedGroupUnary:
		if in, ok := ResolveSchema(w.In); ok {
			if lay := value.NewLayout(append(append([]string(nil), w.By...), w.G)...); lay != nil {
				nested := nestedWith(nestedKept(in.Nested, lay), w.G, fnNested(w.F, in))
				return Schema{Lay: lay, Nested: nested, Native: true}, true
			}
		}
		return genericSchema(op)
	case UnorderedGroupBinary:
		l, lok := ResolveSchema(w.L)
		r, rok := ResolveSchema(w.R)
		if lok && rok {
			lay, slot := l.Lay.Extend(w.G)
			if slot == l.Lay.Width() { // G must be fresh
				nested := nestedWith(l.Nested, w.G, fnNested(w.F, r))
				return Schema{Lay: lay, Nested: nested, Native: true}, true
			}
		}
		return genericSchema(op)

	default:
		// Unknown extensions execute through the fallback shim over their
		// static attribute set.
		return genericSchema(op)
	}
}

// concatSchema types the binary operators whose output is l ◦ r.
func concatSchema(op Op, lop, rop Op) (Schema, bool) {
	l, lok := ResolveSchema(lop)
	r, rok := ResolveSchema(rop)
	if lok && rok {
		if lay, ok := l.Lay.Concat(r.Lay); ok {
			return Schema{Lay: lay, Nested: nestedUnion(l.Nested, r.Nested), Native: true}, true
		}
	}
	return genericSchema(op)
}

// unnestSchema types µ/µD: the input minus the group attribute, extended by
// the group's inner layout. The inner layout comes from the operator hint
// (InnerAttrs) or from the resolver's nested-attribute tracking. Inner
// attributes that collide with kept input attributes share the slot (the
// group tuple wins, matching Concat's map semantics — e.g. µ over Γ, where
// the grouping key reappears inside the group members).
func unnestSchema(op Op, in Op, attr string, innerAttrs []string) (Schema, bool) {
	if insc, ok := ResolveSchema(in); ok {
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
				nested := nestedUnion(nestedKept(insc.Nested, base),
					nestedKept(inner.Nested, lay))
				return Schema{Lay: lay, Nested: nested, Native: true}, true
			}
		}
	}
	return genericSchema(op)
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
