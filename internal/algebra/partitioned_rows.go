package algebra

import (
	"slices"

	"nalquery/internal/value"
)

// Native slot-row execution of the partitioned operator family: the six
// unordered operators (⋈ᵁ, ⋉ᵁ, ▷ᵁ, ⟕ᵁ, unary/binary Γᵁ). These are
// partition-everything pipeline breakers: both inputs materialize as
// rows, partition tables are keyed by allocation-free composite
// value.HashKeys (rowKey) over flat group arrays (bucketRows), and output
// streams from the partition structure into the iterator's row chunks.
//
// Every iterator here defers its build to the first Next() call and drains
// the probe (left) side first, so an empty left input never evaluates the
// right subtree — the short-circuit of the definitional Eval.
//
// The family emits output in the canonical value.LessKey partition order;
// the Evals partition with the same key function (tupleHashKey/rowKey agree
// on logical tuples) and the same order, so both engines produce identical
// sequences — the property partitioned_rows_test.go differential-tests.

// partitionRowsSorted buckets rows on the key slots and returns the keys
// in canonical LessKey order. keyHint pre-sizes the partition table and key
// list — the cost model's distinct-key estimate where the caller has one,
// the input size otherwise.
func partitionRowsSorted(rows []value.Row, slots []int, keyHint int) ([]value.HashKey, rowBuckets) {
	buckets := bucketRows(rows, slots, keyHint)
	keys := make([]value.HashKey, 0, buckets.n())
	for k := range buckets.ids {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, value.CmpKey)
	return keys, buckets
}

// openRowPartitionedJoin builds the native iterator of the unordered join
// family: both inputs partitioned on the key columns, partitions joined in
// LessKey order.
func openRowPartitionedJoin(n *Node, lAttrs, rAttrs []string, residual Expr,
	ctx *Ctx, env value.Tuple, mode joinMode, g string, def SeqFunc) RowIter {
	l, r := n.Kids[0], n.Kids[1]
	lsc, rsc := l.Schema, r.Schema
	// ⋈/⟕ modes emit l ◦ r, their resolved layout; ⋉/▷ emit left rows, need
	// the concatenation only to compile a residual, and without one tolerate
	// colliding attribute names across the inputs.
	catLay := n.Schema.Lay
	if mode == joinModeSemi || mode == joinModeAnti {
		catLay = nil
		if residual != nil {
			catLay, _ = lsc.Lay.Concat(rsc.Lay)
		}
	}
	lSlots := slotsOf(lsc.Lay, lAttrs)
	rSlots := slotsOf(rsc.Lay, rAttrs)
	it := &rowPartJoinIter{ctx: ctx, mode: mode, lay: n.Schema.Lay, catLay: catLay,
		gSlot: -1, padFrom: lsc.Lay.Width()}
	if mode == joinModeOuter {
		it.gSlot, _ = catLay.Slot(g)
		it.def = emptyGroup(def, rsc.Lay)
	}
	if residual != nil {
		c := n.scope(Schema{Lay: catLay}, env)
		it.residual = c.expr(residual)
		it.probe = make([]value.Value, catLay.Width())
	}
	it.build = func() bool {
		left := drainRows(ctx, TripPartition, l.open(ctx, env))
		if len(left) == 0 {
			return false
		}
		it.keys, it.lParts = partitionRowsSorted(left, lSlots, len(left))
		right := drainRows(ctx, TripPartition, r.open(ctx, env))
		it.rParts = bucketRows(right, rSlots, len(right))
		return true
	}
	return it
}

// rowPartJoinIter streams one partitioned join: partitions advance in key
// order, left tuples in input order within a partition, right partners in
// input order within a left tuple.
type rowPartJoinIter struct {
	ctx      *Ctx
	mode     joinMode
	lay      *value.Layout // output layout (concat, or left for semi/anti)
	catLay   *value.Layout // concat layout the residual compiles against
	residual RowExpr
	gSlot    int         // ⟕ᵁ: slot receiving the default on padding
	padFrom  int         // ⟕ᵁ: first right slot in the concatenated layout
	def      value.Value // ⟕ᵁ: f(), the default on padding

	build         func() bool
	started, done bool
	keys          []value.HashKey
	lParts        rowBuckets
	rParts        rowBuckets
	ki, li, ri    int
	slab          rowSlab
	probe         []value.Value // the row the residual of ⋉/▷ is evaluated on
}

func (p *rowPartJoinIter) Next() (value.Row, bool) {
	if !p.started {
		p.started = true
		if !p.build() {
			p.done = true
		}
	}
	// Emission from the partition structure streams; fault-injection
	// boundary only.
	p.ctx.Fault(TripProbe)
	for !p.done {
		if p.ki >= len(p.keys) {
			p.done = true
			break
		}
		lp := p.lParts.lookup(p.keys[p.ki])
		rp := p.rParts.lookup(p.keys[p.ki])
		if p.li >= len(lp) {
			p.ki++
			p.li, p.ri = 0, 0
			continue
		}
		switch p.mode {
		case joinModeInner:
			if len(rp) == 0 {
				p.ki++
				p.li, p.ri = 0, 0
				continue
			}
			if p.ri >= len(rp) {
				p.li++
				p.ri = 0
				continue
			}
			out := value.ConcatRows(p.lay, p.slab.take(p.lay.Width(), len(rp)-p.ri), lp[p.li], rp[p.ri])
			p.ri++
			if p.residual != nil && !value.EffectiveBool(p.residual(p.ctx, out)) {
				continue
			}
			return out, true

		case joinModeSemi:
			if len(rp) == 0 {
				p.ki++
				p.li = 0
				continue
			}
			lt := lp[p.li]
			p.li++
			if p.residual == nil || p.anyResidual(lt, rp) {
				return lt, true
			}

		case joinModeAnti:
			lt := lp[p.li]
			p.li++
			matched := len(rp) > 0
			if p.residual != nil {
				matched = p.anyResidual(lt, rp)
			}
			if !matched {
				return lt, true
			}

		case joinModeOuter:
			if len(rp) == 0 {
				lt := lp[p.li]
				p.li++
				return padOuter(&p.slab, p.lay, lt, p.padFrom, p.gSlot, p.def), true
			}
			if p.ri >= len(rp) {
				p.li++
				p.ri = 0
				continue
			}
			out := value.ConcatRows(p.lay, p.slab.take(p.lay.Width(), len(rp)-p.ri), lp[p.li], rp[p.ri])
			p.ri++
			return out, true
		}
	}
	return value.Row{}, false
}

func (p *rowPartJoinIter) anyResidual(lt value.Row, rp []value.Row) bool {
	for _, rt := range rp {
		if value.EffectiveBool(p.residual(p.ctx, value.ConcatRows(p.catLay, p.probe, lt, rt))) {
			return true
		}
	}
	return false
}

func (p *rowPartJoinIter) Close() { p.done = true }

// ---- unordered grouping ----

// openRowUnorderedGroupUnary builds the native Γᵁ: one output row per
// distinct key, keys in LessKey order, group values computed by the
// slot-compiled applier.
func openRowUnorderedGroupUnary(g UnorderedGroupUnary, n *Node, ctx *Ctx, env value.Tuple) RowIter {
	sc, insc := n.Schema, n.Kids[0].Schema
	by := slotsOf(insc.Lay, g.By)
	gSlot, _ := sc.Lay.Slot(g.G)
	c := n.scope(insc, env)
	it := &rowUnorderedGroupUnaryIter{lay: sc.Lay, gSlot: gSlot, by: by, outBy: slotsOf(sc.Lay, g.By),
		theta: g.Theta, apply: c.applier(g.F, insc.Lay), ctx: ctx}
	it.build = func() {
		it.rows = drainRows(ctx, TripPartition, n.Kids[0].open(ctx, env))
		it.keys, it.buckets = partitionRowsSorted(it.rows, by, ctx.cardHint(g, len(it.rows)))
	}
	return it
}

type rowUnorderedGroupUnaryIter struct {
	lay       *value.Layout
	gSlot     int
	by, outBy []int
	theta     value.CmpOp
	apply     rowsFunc
	ctx       *Ctx

	build   func()
	started bool
	rows    []value.Row
	keys    []value.HashKey
	buckets rowBuckets
	pos     int
	slab    rowSlab
}

func (g *rowUnorderedGroupUnaryIter) Next() (value.Row, bool) {
	if !g.started {
		g.started = true
		g.build()
	}
	if g.pos >= len(g.keys) {
		return value.Row{}, false
	}
	b := g.buckets.lookup(g.keys[g.pos])
	g.pos++
	rep := b[0]
	grp := b
	if g.theta != value.CmpEq {
		// General θ: the group is every input row whose by-attributes stand
		// in relation θ to the key — same scan as the definitional Eval.
		grp = nil
		for _, r := range g.rows {
			if thetaMatchRows(rep, r, g.by, g.by, g.theta) {
				grp = append(grp, r)
			}
		}
	}
	vals := g.slab.take(g.lay.Width(), len(g.keys)-g.pos+1)
	for i, s := range g.by {
		vals[g.outBy[i]] = rep.Vals[s]
	}
	vals[g.gSlot] = g.apply(g.ctx, grp)
	return value.Row{Lay: g.lay, Vals: vals}, true
}

func (g *rowUnorderedGroupUnaryIter) Close() { g.pos = len(g.keys); g.started = true }

// openRowUnorderedGroupBinary builds the native unordered nest-join: left
// tuples in LessKey partition order, each extended by f over its right
// group (cached per distinct key on the hash path, like the ordered
// operator).
func openRowUnorderedGroupBinary(g UnorderedGroupBinary, n *Node, ctx *Ctx, env value.Tuple) RowIter {
	gSlot, _ := n.Schema.Lay.Slot(g.G)
	it := &rowUnorderedGroupBinaryIter{lay: n.Schema.Lay, gSlot: gSlot, ctx: ctx,
		right: newRightGroups(n, g.LAttrs, g.RAttrs, g.Theta, g.F, env)}
	it.build = func() bool {
		left := drainRows(ctx, TripPartition, n.Kids[0].open(ctx, env))
		if len(left) == 0 {
			return false
		}
		it.keys, it.lParts = partitionRowsSorted(left, it.right.lSlots, len(left))
		it.right.build(drainRows(ctx, TripPartition, n.Kids[1].open(ctx, env)))
		return true
	}
	return it
}

type rowUnorderedGroupBinaryIter struct {
	lay   *value.Layout
	gSlot int
	ctx   *Ctx
	right rightGroups

	build         func() bool
	started, done bool
	keys          []value.HashKey
	lParts        rowBuckets
	ki, li        int
	slab          rowSlab
}

func (g *rowUnorderedGroupBinaryIter) Next() (value.Row, bool) {
	if !g.started {
		g.started = true
		if !g.build() {
			g.done = true
		}
	}
	for !g.done {
		if g.ki >= len(g.keys) {
			g.done = true
			break
		}
		lp := g.lParts.lookup(g.keys[g.ki])
		if g.li >= len(lp) {
			g.ki++
			g.li = 0
			continue
		}
		lt := lp[g.li]
		g.li++
		out := g.slab.extend(g.lay, lt, len(lp)-g.li+1)
		out.Vals[g.gSlot] = g.right.of(g.ctx, lt)
		return out, true
	}
	return value.Row{}, false
}

func (g *rowUnorderedGroupBinaryIter) Close() { g.done = true }
