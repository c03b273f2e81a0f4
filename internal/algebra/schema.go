package algebra

import (
	"slices"

	"nalquery/internal/value"
)

// This file implements the plan-time resolution pass of the slot engine.
// Resolve walks an operator tree bottom-up, once, and gives every operator an
// output Layout — a fixed attribute→slot mapping — so that execution can read
// and write slices instead of rebuilding Go maps per tuple, and the opener
// that builds the operator's iterator from what typing it derived. The result
// is a tree of Nodes the iterators open from.
//
// Besides the flat layout, the resolver tracks the layouts of
// tuple-sequence-valued attributes (group attributes created by Γ, the e[a]
// constructor, nested query blocks): µD needs them to assign slots to the
// attributes that unnesting releases.
//
// Whether a plan runs is decided here, once: an operator the resolver cannot
// type — an unknown extension, a definitional-only operator (ΠD, µ), a
// colliding layout, a key, group or unnest attribute its input does not
// bind, a µD over an untracked payload — has Node.OK = false, and so has
// everything above it. No opener declines later: an unresolved plan is
// refused when it is opened (see Node.Pump), before it produces anything,
// and every compiled plan resolves.

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
// nested-in-nested plans (Γ under µD — the outer payload's members carrying
// their own group attribute) resolve: unnesting releases not just the member
// attributes but their nested schemas too.
type Inner = Schema

func (s Schema) nested(attr string) *Inner { return s.Nested[attr] }

// nestedWith returns a copy of the nested map with one entry replaced (or
// removed when in is nil).
func nestedWith(src map[string]*Inner, attr string, in *Inner) map[string]*Inner {
	if in == nil && len(src) == 0 {
		return nil
	}
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
	case ConstVal:
		// A constant tuple sequence is typed by its own layout.
		if rs, ok := w.V.(value.RowSeq); ok {
			return &Inner{Lay: rs.Lay()}
		}
		return nil
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

// opener builds a resolved node's iterator under env. The schema rule that
// typed the operator made it over what it derived — slots, layouts, key
// pairs — so an open only opens the inputs, compiles the subscripts against
// env and builds iterator state.
type opener func(ctx *Ctx, env value.Tuple) RowIter

// Node is one operator of a resolved plan: the operator, its output schema,
// its opener and the nodes of its algebraic inputs, in Children() order. A
// resolved tree is immutable — layouts, slot lists and nested-schema maps are
// never written after Resolve returns — so any number of runs may open it
// concurrently.
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
	// open builds the node's iterator; nil when OK is false.
	open opener
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
	n.Schema, n.open = n.resolve()
	n.OK = n.open != nil
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

// slotsIn resolves attribute names to their slots under a layout; false when
// the layout does not bind one of them.
func slotsIn(lay *value.Layout, names []string) ([]int, bool) {
	out := make([]int, len(names))
	for i, name := range names {
		s, ok := lay.Slot(name)
		if !ok {
			return nil, false
		}
		out[i] = s
	}
	return out, true
}

// resolve is the rule of one operator over its inputs' schemas: the one place
// that decides whether the operator can run — inputs and nested plans typed,
// key, group and unnest attributes bound, layouts concatenable — and that
// derives what its iterator reads, once per resolved plan. ΠD and µ are
// definitional only: no compiled plan holds them, so they have their Eval
// and their cost rule but no rule here.
func (n *Node) resolve() (Schema, opener) {
	for _, k := range n.Kids {
		if !k.OK {
			return Schema{}, nil
		}
	}
	if !n.nest(nestedIn(n.Op)) {
		return Schema{}, nil
	}
	var in, r Schema // the first and second input
	if len(n.Kids) > 0 {
		in = n.Kids[0].Schema
	}
	if len(n.Kids) > 1 {
		r = n.Kids[1].Schema
	}
	//nal:opswitch schema exempt=ProjectDistinct,Unnest
	switch w := n.Op.(type) {
	case Singleton:
		return typed(singleton[0].Lay, nil, func(*Ctx, value.Tuple) RowIter {
			return &rowSliceIter{rows: singleton}
		})

	case Select:
		return typed(in.Lay, in.Nested, func(ctx *Ctx, env value.Tuple) RowIter {
			c := n.scope(in, env)
			return &rowSelectIter{in: n.Kids[0].open(ctx, env), pred: c.expr(w.Pred), ctx: ctx}
		})

	case XiSimple:
		return typed(in.Lay, in.Nested, func(ctx *Ctx, env value.Tuple) RowIter {
			c := n.scope(in, env)
			return &rowXiIter{in: n.Kids[0].open(ctx, env), cmds: c.commands(w.Cmds), ctx: ctx}
		})

	case XiGroup:
		if by, ok := slotsIn(in.Lay, w.By); ok {
			return typed(in.Lay, in.Nested, func(ctx *Ctx, env value.Tuple) RowIter {
				return n.openXiGroup(w, by, ctx, env)
			})
		}

	case Sort:
		if by, ok := slotsIn(in.Lay, w.By); ok {
			return typed(in.Lay, in.Nested, func(ctx *Ctx, env value.Tuple) RowIter {
				return openSort(n.Kids[0].open(ctx, env), by, w.Dirs, ctx)
			})
		}

	case Project:
		if lay, src := in.Lay.Project(w.Names); lay != nil {
			return typed(lay, nestedKept(in.Nested, lay), n.slotMap(lay, src))
		}

	case ProjectDrop:
		lay, src := in.Lay.Drop(w.Names)
		return typed(lay, nestedKept(in.Nested, lay), n.slotMap(lay, src))

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
			return typed(lay, nested, func(ctx *Ctx, env value.Tuple) RowIter {
				return &rowRenameIter{in: n.Kids[0].open(ctx, env), lay: lay}
			})
		}

	case Map:
		lay, slot := in.Lay.Extend(w.Attr)
		return typed(lay, nestedWith(in.Nested, w.Attr, exprNested(w.E, in, n.subs)), func(ctx *Ctx, env value.Tuple) RowIter {
			c := n.scope(in, env)
			return &rowMapIter{in: n.Kids[0].open(ctx, env), lay: lay, slot: slot, e: c.expr(w.E), ctx: ctx}
		})

	case UnnestMap:
		lay, slot := in.Lay.Extend(w.Attr)
		posSlot := -1
		if w.PosAttr != "" {
			lay, posSlot = lay.Extend(w.PosAttr)
		}
		// Υ binds items, never tuple sequences.
		return typed(lay, nestedWith(in.Nested, w.Attr, nil), func(ctx *Ctx, env value.Tuple) RowIter {
			return n.openUnnestMap(w.E, lay, slot, posSlot, ctx, env)
		})

	case IndexScan:
		lay, slot := in.Lay.Extend(w.Attr)
		// An index scan binds nodes, never tuple sequences.
		return typed(lay, nestedWith(in.Nested, w.Attr, nil), func(ctx *Ctx, env value.Tuple) RowIter {
			child := n.Kids[0].open(ctx, env)
			nodes := w.resolve(ctx, env)
			// pos starts exhausted so the first Next pulls an input row
			// before emitting.
			return &rowIndexScanIter{in: child, lay: lay, slot: slot, nodes: nodes, ctx: ctx, pos: len(nodes)}
		})

	case Cross:
		if lay, ok := in.Lay.Concat(r.Lay); ok {
			return typed(lay, nestedUnion(in.Nested, r.Nested), func(ctx *Ctx, env value.Tuple) RowIter {
				return &rowCrossIter{left: n.Kids[0].open(ctx, env), build: n.Kids[1], env: env, ctx: ctx, lay: lay}
			})
		}

	case Join:
		return n.join(in, r, w.Pred, joinModeInner, "", nil)
	case SemiJoin:
		return n.join(in, r, w.Pred, joinModeSemi, "", nil)
	case AntiJoin:
		return n.join(in, r, w.Pred, joinModeAnti, "", nil)
	case OuterJoin:
		return n.join(in, r, w.Pred, joinModeOuter, w.G, w.Default)

	case GroupSelf:
		if by, ok := slotsIn(in.Lay, w.By); ok {
			if sc, ok := n.groupInto(in, in, w.G, w.F); ok {
				return sc, func(ctx *Ctx, env value.Tuple) RowIter {
					return n.openGroupSelf(w.F, by, sc.Lay, ctx, env)
				}
			}
		}

	case GroupBinary:
		lSlots, lok := slotsIn(in.Lay, w.LAttrs)
		rSlots, rok := slotsIn(r.Lay, w.RAttrs)
		if lok && rok {
			if sc, ok := n.groupInto(in, r, w.G, w.F); ok {
				return sc, func(ctx *Ctx, env value.Tuple) RowIter {
					return &rowGroupBinaryIter{left: n.Kids[0].open(ctx, env), n: n, f: w.F, theta: w.Theta,
						lSlots: lSlots, rSlots: rSlots, env: env, lay: sc.Lay, ctx: ctx}
				}
			}
		}

	case GroupUnary:
		// The grouping attributes followed by g.
		var fn planList
		fn.fn(w.F)
		by, bound := slotsIn(in.Lay, w.By)
		if lay := value.NewLayout(append(w.By[:len(w.By):len(w.By)], w.G)...); n.nest(fn) && lay != nil && bound {
			return typed(lay, nestedWith(nestedKept(in.Nested, lay), w.G, fnNested(w.F, in)), func(ctx *Ctx, env value.Tuple) RowIter {
				return n.openGroupUnary(w, by, lay, ctx, env)
			})
		}

	case UnnestDistinct:
		return n.unnestDistinct(in, w.Attr)
	}
	// Unknown extensions and the definitional-only operators included.
	return Schema{}, nil
}

// singleton is what □ emits: one empty row, immutable, so every open of
// every plan hands out the same.
var singleton = []value.Row{value.NewRow(value.NewLayout())}

// slotMap opens Π and Π̄: every output slot is copied from its source slot,
// -1 for an attribute the input does not bind (Π of it projects an absent
// value, matching the map semantics).
func (n *Node) slotMap(lay *value.Layout, src []int) opener {
	return func(ctx *Ctx, env value.Tuple) RowIter {
		return &rowSlotMapIter{in: n.Kids[0].open(ctx, env), lay: lay, src: src}
	}
}

// join types ⋈, ⋉, ▷ and ⟕ and derives what their iterator reads: the
// concatenated layout their predicate compiles against, the slots of the
// equi-join key pairs the build side is hashed on with the residual
// predicate they leave, and for ⟕ the slot of g — an attribute the result
// binds — and f(), the value g takes on a left tuple without partner (f a
// sequence function of the engine's inventory).
func (n *Node) join(l, r Schema, pred Expr, mode joinMode, g string, f SeqFunc) (Schema, opener) {
	cat, ok := l.Lay.Concat(r.Lay)
	if !ok {
		return Schema{}, nil
	}
	sc := Schema{Lay: cat, Nested: nestedUnion(l.Nested, r.Nested)}
	if mode == joinModeSemi || mode == joinModeAnti {
		// ⋉ and ▷ emit left rows but compile their predicate against l ◦ r.
		sc = l
	}
	spec := &joinSpec{mode: mode, lay: sc.Lay, cat: cat, residual: pred, padFrom: l.Lay.Width()}
	if mode == joinModeOuter {
		var def planList
		def.fn(f)
		gSlot, bound := cat.Slot(g)
		if !bound || def.unknown {
			return Schema{}, nil
		}
		spec.gSlot, spec.def = gSlot, emptyGroup(f, r.Lay)
	}
	if pairs, residual, ok := splitEqPred(pred, NameSet(l.Lay.Names(), true), NameSet(r.Lay.Names(), true)); ok {
		for _, p := range pairs {
			ls, _ := l.Lay.Slot(p.Left)
			rs, _ := r.Lay.Slot(p.Right)
			spec.lSlots, spec.rSlots = append(spec.lSlots, ls), append(spec.rSlots, rs)
		}
		spec.residual = residual
	}
	return sc, func(ctx *Ctx, env value.Tuple) RowIter {
		return &rowJoinIter{joinSpec: spec, left: n.Kids[0].open(ctx, env), n: n, env: env, ctx: ctx}
	}
}

// groupInto types the operators that extend every tuple of l by a group
// attribute g holding f over tuples of members (Γ-self: l itself; binary Γ:
// the right input). g must be fresh: it takes the slot after l's.
func (n *Node) groupInto(l, members Schema, g string, f SeqFunc) (Schema, bool) {
	var fn planList
	fn.fn(f)
	if lay, slot := l.Lay.Extend(g); n.nest(fn) && slot == l.Lay.Width() {
		return Schema{Lay: lay, Nested: nestedWith(l.Nested, g, fnNested(f, members))}, true
	}
	return Schema{}, false
}

// unnestDistinct types µD: the input minus the group attribute, extended by
// the group's inner layout from the resolver's nested-attribute tracking, and
// derives the splice of a member into an output row. Inner attributes that
// collide with kept input attributes share the slot (the group tuple wins,
// matching Concat's map semantics — e.g. µD over Γ, where the grouping key
// reappears inside the group members).
func (n *Node) unnestDistinct(in Schema, attr string) (Schema, opener) {
	inner := in.nested(attr)
	gSlot, bound := in.Lay.Slot(attr)
	if inner == nil || inner.Lay == nil || !bound {
		return Schema{}, nil
	}
	// The kept input slots come first, in order, so a row starts as a copy
	// of them.
	base, baseSrc := in.Lay.Drop([]string{attr})
	names := slices.Clone(base.Names())
	for _, name := range inner.Lay.Names() {
		if !base.Has(name) {
			names = append(names, name)
		}
	}
	lay := value.NewLayout(names...)
	innerNames := inner.Lay.Names()
	innerDst := make([]int, len(innerNames))
	for i, name := range innerNames {
		innerDst[i], _ = lay.Slot(name)
	}
	// The released members' own nested schemas join the output's: that is
	// what makes Γ-under-µD (nested-in-nested payloads) resolve. On a name
	// collision the group side wins, matching Concat's map semantics.
	sc := Schema{Lay: lay, Nested: nestedUnion(nestedKept(in.Nested, base), nestedKept(inner.Nested, lay))}
	return sc, func(ctx *Ctx, env value.Tuple) RowIter {
		return &rowUnnestIter{in: n.Kids[0].open(ctx, env), lay: lay, gSlot: gSlot, baseSrc: baseSrc,
			innerNames: innerNames, innerDst: innerDst, dedup: map[value.HashKey]bool{}, ctx: ctx}
	}
}

// typed is the schema and opener of an operator the resolver could type.
func typed(lay *value.Layout, nested map[string]*Inner, open opener) (Schema, opener) {
	return Schema{Lay: lay, Nested: nested}, open
}
