package algebra

import (
	"slices"
	"sync/atomic"

	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

// This file implements the plan-time resolution pass of the slot engine.
// Resolve walks an operator tree bottom-up, once, and gives every operator an
// output Layout — a fixed attribute→slot mapping — so that execution can read
// and write slices instead of rebuilding Go maps per tuple, and the opener
// that builds the operator's iterator from what typing it derived and the
// subscripts it compiled (compile.go). The result is a tree of Nodes the
// iterators open from.
//
// Besides the flat layout, the resolver tracks the layouts of
// tuple-sequence-valued attributes (group attributes created by Γ, the e[a]
// constructor, nested query blocks): µD needs them to assign slots to the
// attributes that unnesting releases, and a sequence function applied to
// such a payload to read its members.
//
// Whether a plan runs is decided here, once: an operator the resolver cannot
// type — an unknown extension, a colliding layout, a key, group or unnest
// attribute its input does not bind, a µD over an untracked payload, a
// subscript outside the compiler's inventory or holding a nested plan that
// does not resolve — has Node.OK = false, and so has everything above it. No opener declines later: an
// unresolved plan is refused when it is opened (see Node.Pump), before it
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

// opener builds a resolved node's iterator, its inputs' included, under the
// chain of rows the plan's free variables read (nil for a top-level plan).
// The schema rule that typed the operator made it over what it derived —
// slots, layouts, key pairs, compiled subscripts — so an open only opens the
// inputs and builds iterator and expression state.
type opener func(ctx *Ctx, up *outer) RowIter

// Node is one operator of a resolved plan: the operator, its output schema,
// its opener and the nodes of its algebraic inputs, in Children() order. A
// resolved tree is immutable — layouts, slot lists, nested-schema maps and
// compiled subscripts are never written after Resolve returns — so any
// number of runs may open it concurrently. The one thing that changes is a
// pipeline breaker's count of opens and its spare working memory (workMem),
// both atomic.
type Node struct {
	Op     Op
	Schema Schema
	// OK is false when the engine cannot run the operator: it, one of its
	// inputs or one of its nested plans has no schema (see resolve).
	OK bool
	// opens counts a breaker's first two opens (Node.take); it fills OK's
	// padding, so a Node stays twelve words.
	opens atomic.Int32
	Kids  []*Node
	// refused is the lowest operator the resolver could not type in a nested
	// plan of the operator's subscripts, when that is why OK is false.
	refused *Node
	// states is the number of scratch entries an open of the compiled
	// subscripts takes (frame).
	states int32
	// reserve is, on the producer of a χ run, the width of the run's top
	// layout: the room each of its rows is cut with, so that the run's χ
	// write their slots in place (Node.cuts). It is 0 on every other node.
	reserve int32
	// open builds the node's iterator; nil when OK is false.
	open opener
	// spare is the working memory a breaker's last closed open gave back,
	// nil before its third open and while an open holds it (Node.take).
	spare atomic.Pointer[workMem]
}

// Resolve types an operator tree in one bottom-up pass: every operator is
// visited once and reads its inputs' already-resolved schemas.
func Resolve(op Op) *Node { return resolveIn(op, nil) }

// resolveIn types an operator tree whose free variables read rows of the
// scope up: a top-level plan (up nil), or the plan of a nested algebraic
// expression, resolved where the subscript compiler meets it.
func resolveIn(op Op, up *scope) *Node {
	n := &Node{Op: op}
	if cs := op.Children(); len(cs) > 0 {
		n.Kids = make([]*Node, len(cs))
		for i, c := range cs {
			n.Kids[i] = resolveIn(c, up)
		}
	}
	n.Schema, n.open = n.resolve(up)
	n.OK = n.open != nil
	return n
}

// ResolveSchema computes the output schema of an operator tree. ok=false
// means the engine cannot type, and so cannot run, the plan.
func ResolveSchema(op Op) (Schema, bool) {
	n := Resolve(op)
	return n.Schema, n.OK
}

// unresolved returns the lowest operator at or under n that the resolver
// could not type: the one to name when the plan is refused.
func (n *Node) unresolved() *Node {
	for _, k := range n.Kids {
		if !k.OK {
			return k.unresolved()
		}
	}
	if n.refused != nil {
		return n.refused
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
// that decides whether the operator can run — inputs typed, subscripts
// compiled and their nested plans typed, key, group and unnest attributes
// bound, layouts concatenable — and that derives what its iterator reads,
// once per resolved plan. up is the scope of the rows the plan's free
// variables read.
func (n *Node) resolve(up *scope) (Schema, opener) {
	for _, k := range n.Kids {
		if !k.OK {
			return Schema{}, nil
		}
	}
	var c compiler
	sc, open := n.rule(&c, up)
	if c.failed {
		n.refused = c.refused
		return Schema{}, nil
	}
	n.states = int32(c.states)
	return sc, open
}

// rule types the operator and builds its opener, compiling its subscripts
// with c against rows of its input enclosed by up.
func (n *Node) rule(c *compiler, up *scope) (Schema, opener) {
	var in, r Schema // the first and second input
	if len(n.Kids) > 0 {
		in = n.Kids[0].Schema
	}
	if len(n.Kids) > 1 {
		r = n.Kids[1].Schema
	}
	rows := scope{Schema: in, up: up} // what a unary operator's subscripts read
	//nal:opswitch schema
	switch w := n.Op.(type) {
	case Singleton:
		return typed(singleton[0].Lay, nil, func(*Ctx, *outer) RowIter {
			return &rowSliceIter{rows: singleton}
		})

	case Select:
		pred := c.expr(w.Pred, rows)
		return typed(in.Lay, in.Nested, func(ctx *Ctx, o *outer) RowIter {
			return &rowSelectIter{in: n.Kids[0].open(ctx, o), pred: pred, frame: n.frame(ctx), up: o}
		})

	case XiSimple:
		cmds := c.commands(w.Cmds, rows)
		return typed(in.Lay, in.Nested, func(ctx *Ctx, o *outer) RowIter {
			return &rowXiIter{in: n.Kids[0].open(ctx, o), cmds: cmds, frame: n.frame(ctx), up: o}
		})

	case XiGroup:
		s1, s2, s3 := c.commands(w.S1, rows), c.commands(w.S2, rows), c.commands(w.S3, rows)
		if by, ok := slotsIn(in.Lay, w.By); ok {
			return typed(in.Lay, in.Nested, func(ctx *Ctx, o *outer) RowIter {
				fr := n.frame(ctx)
				return n.openXiGroup(by, s1, s2, s3, &fr, o)
			})
		}

	case Sort:
		if by, ok := slotsIn(in.Lay, w.By); ok {
			return typed(in.Lay, in.Nested, func(ctx *Ctx, o *outer) RowIter {
				return n.openSort(by, w.Dirs, ctx, o)
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
			return typed(lay, nested, func(ctx *Ctx, o *outer) RowIter {
				return &rowRenameIter{in: n.Kids[0].open(ctx, o), lay: lay}
			})
		}

	case Map:
		lay, slot := in.Lay.Extend(w.Attr)
		e, inner := c.compile(w.E, rows)
		// A new slot over rows a producer cut for this run is written in
		// place; a rebinding χ, or one over rows no producer cut for it,
		// cuts a row of its own and is the producer of the run above it.
		p := n.Kids[0].cuts()
		inPlace := p != nil && slot == in.Lay.Width()
		if inPlace {
			p.reserve = int32(lay.Width())
		}
		return typed(lay, nestedWith(in.Nested, w.Attr, inner), func(ctx *Ctx, o *outer) RowIter {
			return &rowMapIter{in: n.Kids[0].open(ctx, o), lay: lay, slot: slot, inPlace: inPlace, room: n.room(),
				e: e, frame: n.frame(ctx), up: o}
		})

	case UnnestMap:
		lay, slot := in.Lay.Extend(w.Attr)
		posSlot := -1
		if w.PosAttr != "" {
			lay, posSlot = lay.Extend(w.PosAttr)
		}
		// Over a path Υ walks the selection itself, over anything else the
		// items of e's value.
		p, byPath := w.E.(PathOf)
		src := w.E
		if byPath {
			src = p.Input
		}
		e := c.expr(src, rows)
		names := new(xpath.Names)
		// Υ binds items, never tuple sequences.
		return typed(lay, nestedWith(in.Nested, w.Attr, nil), func(ctx *Ctx, o *outer) RowIter {
			u := &rowUnnestMapIter{in: n.Kids[0].open(ctx, o), lay: lay, room: n.room(), slot: slot, posSlot: posSlot,
				e: e, path: p.Path, names: names, byPath: byPath, frame: n.frame(ctx), up: o}
			u.nodes = u.first[:0]
			return u
		})

	case IndexScan:
		lay, slot := in.Lay.Extend(w.Attr)
		// The key reads no input row: it is evaluated once per open, on □'s
		// empty row, under the rows enclosing the plan.
		var key RowExpr
		if w.Key != nil {
			key = c.expr(w.Key, scope{Schema: Schema{Lay: singleton[0].Lay}, up: up})
		}
		// An index scan binds nodes, never tuple sequences.
		return typed(lay, nestedWith(in.Nested, w.Attr, nil), func(ctx *Ctx, o *outer) RowIter {
			s := &rowIndexScanIter{in: n.Kids[0].open(ctx, o), lay: lay, room: n.room(), slot: slot, frame: n.frame(ctx)}
			var k value.Value
			if key != nil {
				k = key(&s.frame, singleton[0], o)
			}
			s.doc = w.Index.Doc()
			s.ranks = w.ranks(ctx, s.doc, k)
			// pos starts exhausted so the first Next pulls an input row
			// before emitting.
			s.pos = len(s.ranks)
			return s
		})

	case SemiJoin:
		return n.join(c, up, in, r, w.Pred, joinModeSemi, "", nil)
	case AntiJoin:
		return n.join(c, up, in, r, w.Pred, joinModeAnti, "", nil)
	case OuterJoin:
		return n.join(c, up, in, r, w.Pred, joinModeOuter, w.G, w.Default)

	case GroupSelf:
		sc, apply, fresh := groupInto(c, up, in, in, w.G, w.F)
		if by, ok := slotsIn(in.Lay, w.By); ok && fresh {
			return sc, func(ctx *Ctx, o *outer) RowIter {
				fr := n.frame(ctx)
				return n.openGroupSelf(by, sc.Lay, apply, &fr, o)
			}
		}

	case GroupBinary:
		lSlots, lok := slotsIn(in.Lay, w.LAttrs)
		rSlots, rok := slotsIn(r.Lay, w.RAttrs)
		sc, apply, fresh := groupInto(c, up, in, r, w.G, w.F)
		if lok && rok && fresh {
			return sc, func(ctx *Ctx, o *outer) RowIter {
				return &rowGroupBinaryIter{left: n.Kids[0].open(ctx, o), group: n, apply: apply, theta: w.Theta,
					lSlots: lSlots, rSlots: rSlots, lay: sc.Lay, room: n.room(), frame: n.frame(ctx), up: o}
			}
		}

	case GroupUnary:
		// The grouping attributes followed by g.
		by, bound := slotsIn(in.Lay, w.By)
		apply, inner := c.applier(w.F, in, up)
		if lay := value.NewLayout(append(w.By[:len(w.By):len(w.By)], w.G)...); lay != nil && bound {
			return typed(lay, nestedWith(nestedKept(in.Nested, lay), w.G, inner), func(ctx *Ctx, o *outer) RowIter {
				fr := n.frame(ctx)
				return n.openGroupUnary(w, by, lay, apply, &fr, o)
			})
		}

	case UnnestDistinct:
		return n.unnestDistinct(in, w.Attr)
	}
	// Unknown extensions.
	return Schema{}, nil
}

// cuts returns the node whose iterator cut the rows n emits, when n is a
// producer or an in-place χ over one — the rows a χ over n may then extend
// in place, since nothing but the χ run above the producer sees them. A
// producer is an operator that emits rows it cut itself from its slab: Υ,
// the index scan, ⟕, Γ, Γ-self, binary Γ, Π, Π̄, µD and a χ that copies.
// □'s shared row, a breaker's retained input rows (Sort, Γ-Ξ) and the rows
// σ, ⋉ and ▷ pass through are cut by no one a χ may extend, so cuts is nil
// over them. A run stops at σ because room reserved in a row that σ drops
// is lost: a selective σ (a nested plan's correlation predicate) would make
// the producer's rows wider than the copies of the few rows it keeps.
func (n *Node) cuts() *Node {
	switch n.Op.(type) {
	case Map:
		// A χ that added a slot wrote it in place if its input was cut for
		// the run; otherwise it cut its rows itself.
		if n.Schema.Lay.Width() > n.Kids[0].Schema.Lay.Width() {
			if p := n.Kids[0].cuts(); p != nil {
				return p
			}
		}
		return n
	case UnnestMap, IndexScan, OuterJoin, GroupUnary, GroupSelf, GroupBinary, Project, ProjectDrop, UnnestDistinct:
		return n
	}
	return nil
}

// room is the number of values a producer cuts each row with: its width, or
// the width of the χ run above it.
func (n *Node) room() int { return max(n.Schema.Lay.Width(), int(n.reserve)) }

// singleton is what □ emits: one empty row, immutable, so every open of
// every plan hands out the same.
var singleton = []value.Row{value.NewRow(value.NewLayout())}

// slotMap opens Π and Π̄: every output slot is copied from its source slot,
// -1 for an attribute the input does not bind (Π of it projects an absent
// value, matching the map semantics).
func (n *Node) slotMap(lay *value.Layout, src []int) opener {
	return func(ctx *Ctx, o *outer) RowIter {
		return &rowSlotMapIter{in: n.Kids[0].open(ctx, o), lay: lay, src: src, room: n.room()}
	}
}

// join types ⋉, ▷ and ⟕ and derives what their iterator reads: the
// concatenated layout their predicate compiles against, the slots of the
// equi-join key pairs the build side is hashed on with the residual
// predicate they leave, compiled, and for ⟕ the slot of g — an attribute the
// result binds — and f(), the value g takes on a left tuple without partner
// (f a sequence function of the engine's inventory).
func (n *Node) join(c *compiler, up *scope, l, r Schema, pred Expr, mode joinMode, g string, f SeqFunc) (Schema, opener) {
	cat, ok := l.Lay.Concat(r.Lay)
	if !ok {
		return Schema{}, nil
	}
	sc := Schema{Lay: cat, Nested: nestedUnion(l.Nested, r.Nested)}
	rows := scope{Schema: sc, up: up}
	if mode == joinModeSemi || mode == joinModeAnti {
		// ⋉ and ▷ emit left rows but compile their predicate against l ◦ r.
		sc = l
	}
	spec := &joinSpec{mode: mode, lay: sc.Lay, cat: cat, padFrom: l.Lay.Width()}
	if mode == joinModeOuter {
		gSlot, bound := cat.Slot(g)
		def, known := emptyGroup(f)
		if !bound || !known {
			return Schema{}, nil
		}
		spec.gSlot, spec.def = gSlot, def
	}
	residual := pred
	if pairs, rest, ok := splitEqPred(pred, NameSet(l.Lay.Names(), true), NameSet(r.Lay.Names(), true)); ok {
		for _, p := range pairs {
			ls, _ := l.Lay.Slot(p.Left)
			rs, _ := r.Lay.Slot(p.Right)
			spec.lSlots, spec.rSlots = append(spec.lSlots, ls), append(spec.rSlots, rs)
		}
		residual = rest
	}
	if residual != nil {
		spec.pred = c.expr(residual, rows)
	}
	return sc, func(ctx *Ctx, o *outer) RowIter {
		return &rowJoinIter{joinSpec: spec, left: n.Kids[0].open(ctx, o), join: n, room: n.room(), frame: n.frame(ctx), up: o}
	}
}

// groupInto types the operators that extend every tuple of l by a group
// attribute g holding f over tuples of members (Γ-self: l itself; binary Γ:
// the right input), and compiles f. fresh is false when g is not: it must
// take the slot after l's.
func groupInto(c *compiler, up *scope, l, members Schema, g string, f SeqFunc) (sc Schema, apply rowsFunc, fresh bool) {
	apply, inner := c.applier(f, members, up)
	lay, slot := l.Lay.Extend(g)
	return Schema{Lay: lay, Nested: nestedWith(l.Nested, g, inner)}, apply, slot == l.Lay.Width()
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
	return sc, func(ctx *Ctx, o *outer) RowIter {
		return &rowUnnestIter{in: n.Kids[0].open(ctx, o), lay: lay, room: n.room(), gSlot: gSlot, baseSrc: baseSrc,
			innerNames: innerNames, innerDst: innerDst, ctx: ctx}
	}
}

// typed is the schema and opener of an operator the resolver could type.
func typed(lay *value.Layout, nested map[string]*Inner, open opener) (Schema, opener) {
	return Schema{Lay: lay, Nested: nested}, open
}
