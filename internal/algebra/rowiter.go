package algebra

import (
	"slices"
	"sync"

	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

// This file is the streaming engine: open-next-close iterators over
// value.Row, one per operator. Resolve (schema.go) fixes every operator's
// attribute→slot mapping once per plan; opening a plan walks the resolved
// nodes — an opener reads its own Schema.Lay and its inputs' Kids[i].Schema
// and never types anything again — and the iterators then produce rows whose
// value slices are cut from chunks the producing iterator owns (rowSlab: one
// allocation per chunk of rows, not per row — and often no slice at all: σ
// and Ξ pass rows through, ΠA′:A swaps the layout pointer and keeps the
// slice). Nested data is slot-native too: group payloads, e[a] bindings and
// nested-block results travel as value.RowSeq. No map tuple is ever on the
// data path; the definitional Eval methods are the oracle this engine is
// tested against, not a way to run an operator.
//
// Rows are immutable once emitted. Operators may retain received rows
// (sort, hash build, the group-detecting Ξ's previous row) without copying;
// producers therefore never hand out a value slice twice, and a retained row
// pins only the chunk it was cut from (at most slabMaxRows rows).

// RowIter is the slot-based iterator interface.
type RowIter interface {
	Next() (value.Row, bool)
	Close()
}

// open builds the iterator of a resolved node (n.OK, so its inputs and
// nested plans resolved too and everything Node.resolve checks holds):
// openers read Kids[i].Schema and look attributes up unchecked.
func (n *Node) open(ctx *Ctx, env value.Tuple) RowIter {
	lay := n.Schema.Lay
	var in *Node
	if len(n.Kids) > 0 {
		in = n.Kids[0]
	}
	//nal:opswitch rowiter
	switch w := n.Op.(type) {
	case Singleton:
		return &rowSliceIter{rows: []value.Row{value.NewRow(lay)}}

	case Select:
		c := n.scope(in.Schema, env)
		return &rowSelectIter{in: in.open(ctx, env), pred: c.expr(w.Pred), ctx: ctx}

	case Project:
		return &rowSlotMapIter{in: in.open(ctx, env), lay: lay, src: slotsOf(in.Schema.Lay, w.Names)}

	case ProjectDrop:
		_, src := in.Schema.Lay.Drop(w.Names)
		return &rowSlotMapIter{in: in.open(ctx, env), lay: lay, src: src}

	case ProjectRename:
		return &rowRenameIter{in: in.open(ctx, env), lay: lay}

	case ProjectDistinct:
		olds := make([]string, len(w.Pairs))
		for i, p := range w.Pairs {
			olds[i] = p.Old
		}
		all := make([]int, lay.Width())
		for i := range all {
			all[i] = i
		}
		return &rowDistinctIter{in: in.open(ctx, env), lay: lay, src: slotsOf(in.Schema.Lay, olds),
			allSlots: all, seen: map[value.HashKey]bool{}, ctx: ctx}

	case Map:
		slot, _ := lay.Slot(w.Attr)
		c := n.scope(in.Schema, env)
		return &rowMapIter{in: in.open(ctx, env), lay: lay, slot: slot, e: c.expr(w.E), ctx: ctx}

	case UnnestMap:
		slot, _ := lay.Slot(w.Attr)
		posSlot := -1
		if w.PosAttr != "" {
			posSlot, _ = lay.Slot(w.PosAttr)
		}
		c := n.scope(in.Schema, env)
		u := &rowUnnestMapIter{in: in.open(ctx, env), lay: lay, slot: slot, posSlot: posSlot, ctx: ctx}
		if p, ok := w.E.(PathOf); ok {
			u.e, u.path, u.byPath, u.nodes = c.expr(p.Input), p.Path, true, u.first[:0]
		} else {
			u.e = c.expr(w.E)
		}
		return u

	case IndexScan:
		slot, _ := lay.Slot(w.Attr)
		child := in.open(ctx, env)
		nodes := w.resolve(ctx, env)
		// pos starts exhausted so the first Next pulls an input row before
		// emitting.
		return &rowIndexScanIter{in: child, lay: lay, slot: slot, nodes: nodes,
			ctx: ctx, pos: len(nodes)}

	case XiSimple:
		c := n.scope(in.Schema, env)
		return &rowXiIter{in: in.open(ctx, env), cmds: c.commands(w.Cmds), ctx: ctx}

	case XiGroup:
		return openRowXiGroup(w, n, ctx, env)

	case Sort:
		by := slotsOf(in.Schema.Lay, w.By)
		// The order-restoration breaker: materialize into a pooled buffer
		// (reused across Open cycles — emitted Rows are value copies, so
		// recycling the buffer never aliases them) and sort it in place with
		// a monomorphic comparison instead of sort.Sort's interface dispatch.
		rows := drainRowsInto(ctx, TripSort, in.open(ctx, env), getSortBuf())
		slices.SortStableFunc(rows, func(a, b value.Row) int {
			return cmpRowsDirs(a, b, by, w.Dirs)
		})
		return &rowSliceIter{rows: rows, pooled: true}

	case Cross:
		return &rowCrossIter{left: in.open(ctx, env),
			right: drainRows(ctx, TripBuild, n.Kids[1].open(ctx, env)), lay: lay, pos: -1}

	case Join:
		return openRowJoin(n, w.Pred, ctx, env, joinModeInner, "", nil)
	case SemiJoin:
		return openRowJoin(n, w.Pred, ctx, env, joinModeSemi, "", nil)
	case AntiJoin:
		return openRowJoin(n, w.Pred, ctx, env, joinModeAnti, "", nil)
	case OuterJoin:
		return openRowJoin(n, w.Pred, ctx, env, joinModeOuter, w.G, w.Default)

	case GroupUnary:
		return openRowGroupUnary(w, n, ctx, env)
	case GroupSelf:
		return openRowGroupSelf(w, n, ctx, env)
	case GroupBinary:
		return openRowGroupBinary(w, n, ctx, env)

	case Unnest:
		return openRowUnnest(n, w.Attr, w.InnerAttrs, ctx, env, true)
	case UnnestDistinct:
		return openRowUnnest(n, w.Attr, nil, ctx, env, false)

	default:
		//nal:allow-panic unreachable: Node.resolve gives an operator outside this switch no schema, and an unresolved plan is refused before it opens (Node.Pump)
		panic("algebra: no iterator for " + n.Op.String())
	}
}

// slotsOf resolves attribute names to slots under a layout, -1 for a name
// the layout does not bind: Π of it projects an absent value, matching the
// map semantics, and keys, group and unnest attributes are never unbound
// (Node.resolve checked).
func slotsOf(lay *value.Layout, names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		if s, ok := lay.Slot(n); ok {
			out[i] = s
		} else {
			out[i] = -1
		}
	}
	return out
}

// drainRows materializes an iterator's remaining rows and closes it. point
// names the materialization boundary for budget accounting (TripSort,
// TripBuild, ...).
func drainRows(ctx *Ctx, point string, it RowIter) []value.Row {
	return drainRowsInto(ctx, point, it, nil)
}

// drainRowsInto materializes into a caller-provided buffer (the pooled form
// used by the Sort breaker) and closes the iterator. It is the breaker-side
// cancellation point — a cancelled run stops materializing build sides, sort
// buffers and group inputs mid-drain — and the breaker-side budget charge
// point: every retained row debits the run's Budget under the caller's trip
// label.
func drainRowsInto(ctx *Ctx, point string, it RowIter, buf []value.Row) []value.Row {
	for {
		if ctx.Cancelled() {
			it.Close()
			return buf
		}
		r, ok := it.Next()
		if !ok {
			it.Close()
			return buf
		}
		ctx.ChargeRow(point, r)
		buf = append(buf, r)
	}
}

// sortBufPool recycles the Sort breaker's materialization buffers across
// Open cycles (and across executions — the pool is process-wide). Buffers
// hold Row structs by value; emitted rows are copies, so reuse is safe.
var sortBufPool sync.Pool

func getSortBuf() []value.Row {
	if p, ok := sortBufPool.Get().(*[]value.Row); ok {
		return (*p)[:0]
	}
	return nil
}

func putSortBuf(buf []value.Row) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	sortBufPool.Put(&buf)
}

// rowsFunc is a sequence function compiled against the layout of the rows
// it is applied to.
type rowsFunc func(ctx *Ctx, rows []value.Row) value.Value

// applier compiles a SeqFunc against the layout of the group's member rows:
// id wraps the member rows as a RowSeq without copying, count and the
// aggregates read slots, ΠA builds a flat projected RowSeq, and f ∘ σp
// compiles its predicate against the member layout once. These are all the
// sequence functions there are (planList.fn refuses a plan with another).
func (c *scope) applier(f SeqFunc, lay *value.Layout) rowsFunc {
	switch w := f.(type) {
	case SFIdent:
		return func(_ *Ctx, rows []value.Row) value.Value {
			return value.WrapRows(lay, rows)
		}
	case SFCount:
		return func(_ *Ctx, rows []value.Row) value.Value {
			return value.Int(int64(len(rows)))
		}
	case SFAgg:
		// A member layout without the attribute aggregates no items.
		slot, bound := lay.Slot(w.Attr)
		// aggregate retains nothing, so one item buffer serves every group.
		var items value.Seq
		return func(_ *Ctx, rows []value.Row) value.Value {
			items = items[:0]
			for _, r := range rows {
				if bound {
					items = value.AppendItems(items, r.Vals[slot])
				}
			}
			return aggregate(w.Fn, items)
		}
	case SFProject:
		plLay := value.NewLayout(w.Attrs...)
		slots := slotsOf(lay, w.Attrs)
		var slab rowSlab
		return func(ctx *Ctx, rows []value.Row) value.Value {
			// The projected payload is a fresh flat backing — the Γ group
			// state the budget exists to bound — cut from the applier's slab.
			ctx.ChargeBytes(TripGroup, len(rows)*len(slots)*rowSlotBytes)
			var flat []value.Value
			if n := len(rows) * len(slots); n > 0 {
				flat = slab.payload(n)[:0]
			}
			for _, r := range rows {
				for _, s := range slots {
					if s >= 0 {
						flat = append(flat, r.Vals[s])
					} else {
						flat = append(flat, nil)
					}
				}
			}
			return value.RowSeqOfFlat(plLay, flat)
		}
	case SFFiltered:
		pred := c.exprOver(Schema{Lay: lay}, w.Pred)
		inner := c.applier(w.Inner, lay)
		// id wraps the kept rows as its payload; every other function reads
		// them and lets go, so one buffer serves all groups.
		_, keeps := w.Inner.(SFIdent)
		var buf []value.Row
		return func(ctx *Ctx, rows []value.Row) value.Value {
			kept := buf[:0]
			for _, r := range rows {
				if value.EffectiveBool(pred(ctx, r)) {
					kept = append(kept, r)
				}
			}
			if !keeps {
				buf = kept
			}
			return inner(ctx, kept)
		}
	default:
		//nal:allow-panic unreachable: Node.resolve refuses a plan holding a sequence function outside this switch (planList.fn) before anything opens
		panic("algebra: unresolved sequence function " + f.String())
	}
}

// ---- elementary iterators ----

type rowSliceIter struct {
	rows   []value.Row
	pos    int
	pooled bool // return the buffer to the sort pool on Close
}

func (s *rowSliceIter) Next() (value.Row, bool) {
	if s.pos >= len(s.rows) {
		return value.Row{}, false
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true
}

func (s *rowSliceIter) Close() {
	if s.pooled && s.rows != nil {
		putSortBuf(s.rows)
	}
	s.rows = nil
}

type rowSelectIter struct {
	in   RowIter
	pred RowExpr
	ctx  *Ctx
}

func (s *rowSelectIter) Next() (value.Row, bool) {
	for {
		r, ok := s.in.Next()
		if !ok {
			return value.Row{}, false
		}
		if value.EffectiveBool(s.pred(s.ctx, r)) {
			return r, true
		}
	}
}

func (s *rowSelectIter) Close() { s.in.Close() }

// rowSlotMapIter is the slot-copy iterator shared by Π and Π̄.
type rowSlotMapIter struct {
	in   RowIter
	lay  *value.Layout
	src  []int
	slab rowSlab
}

func (m *rowSlotMapIter) Next() (value.Row, bool) {
	r, ok := m.in.Next()
	if !ok {
		return value.Row{}, false
	}
	return value.MapSlots(m.lay, m.slab.take(len(m.src), 0), m.src, r), true
}

func (m *rowSlotMapIter) Close() { m.in.Close() }

// rowRenameIter implements ΠA′:A as a pure layout swap: zero copies, zero
// allocations per tuple.
type rowRenameIter struct {
	in  RowIter
	lay *value.Layout
}

func (m *rowRenameIter) Next() (value.Row, bool) {
	r, ok := m.in.Next()
	if !ok {
		return value.Row{}, false
	}
	return value.Row{Lay: m.lay, Vals: r.Vals}, true
}

func (m *rowRenameIter) Close() { m.in.Close() }

type rowDistinctIter struct {
	in       RowIter
	lay      *value.Layout
	src      []int
	allSlots []int // 0..width-1, the distinct key spans every output slot
	seen     map[value.HashKey]bool
	ctx      *Ctx
	slab     rowSlab
	spare    []value.Value // a duplicate's slice, never emitted: the next row's
}

func (d *rowDistinctIter) Next() (value.Row, bool) {
	for {
		r, ok := d.in.Next()
		if !ok {
			return value.Row{}, false
		}
		if d.spare == nil {
			d.spare = d.slab.take(len(d.src), 0)
		}
		out := value.MapSlots(d.lay, d.spare, d.src, r)
		key := rowKey(out, d.allSlots)
		if d.seen[key] {
			clear(d.spare)
			continue
		}
		d.spare = nil
		// The dedup table retains one entry (and the emitted row) per
		// distinct key — the materialized state of ΠD.
		d.ctx.charge(TripDedup, 0, dedupEntryBytes)
		d.seen[key] = true
		return out, true
	}
}

func (d *rowDistinctIter) Close() { d.in.Close() }

type rowMapIter struct {
	in   RowIter
	lay  *value.Layout
	slot int
	e    RowExpr
	ctx  *Ctx
	slab rowSlab
}

func (m *rowMapIter) Next() (value.Row, bool) {
	r, ok := m.in.Next()
	if !ok {
		return value.Row{}, false
	}
	out := m.slab.extend(m.lay, r, 0)
	out.Vals[m.slot] = m.e(m.ctx, r)
	return out, true
}

func (m *rowMapIter) Close() { m.in.Close() }

// rowUnnestMapIter is Υ: one output row per item of e's value. It only
// iterates, so it builds no sequence to do so. Over a path (byPath; e is then
// the path's context expression) it walks the selection in the node buffer it
// refills for every input row, and a row takes its node out of the buffer, so
// nothing emitted aliases it. Any other single item is read through one.
type rowUnnestMapIter struct {
	in      RowIter
	lay     *value.Layout
	slot    int
	posSlot int
	e       RowExpr
	path    xpath.Path
	byPath  bool
	ctx     *Ctx

	cur   value.Row
	n     int          // items of cur, of which pos are emitted
	nodes []*dom.Node  // they are these when byPath,
	items value.Seq    // and these otherwise
	first [8]*dom.Node // nodes starts here, as a path value starts on the stack
	one   [1]value.Value
	pos   int
	slab  rowSlab
}

func (u *rowUnnestMapIter) Next() (value.Row, bool) {
	for {
		// Υ is the engine's scan producer: every stored-document traversal
		// streams through here, making it the cancellation point of choice
		// for fully pipelined plans.
		if u.ctx.Cancelled() {
			return value.Row{}, false
		}
		if u.pos < u.n {
			out := u.slab.extend(u.lay, u.cur, u.n-u.pos)
			out.Vals[u.slot] = u.item(u.pos)
			if u.posSlot >= 0 {
				out.Vals[u.posSlot] = value.Int(int64(u.pos + 1))
			}
			u.pos++
			u.ctx.Stats.Tuples++
			u.ctx.ChargeRow(TripScan, out)
			return out, true
		}
		r, ok := u.in.Next()
		if !ok {
			return value.Row{}, false
		}
		u.cur, u.pos = r, 0
		u.refill(u.e(u.ctx, r))
	}
}

// refill takes the items of the next input row from e's value.
func (u *rowUnnestMapIter) refill(v value.Value) {
	if u.byPath {
		u.nodes = u.path.Append(u.nodes[:0], v)
		u.n = len(u.nodes)
		return
	}
	u.items = value.Items(v, &u.one)
	u.n = len(u.items)
}

func (u *rowUnnestMapIter) item(i int) value.Value {
	if u.byPath {
		return value.NodeVal{Node: u.nodes[i]}
	}
	return u.items[i]
}

func (u *rowUnnestMapIter) Close() { u.in.Close() }

type rowXiIter struct {
	in   RowIter
	cmds []compiledCmd
	ctx  *Ctx
}

func (x *rowXiIter) Next() (value.Row, bool) {
	r, ok := x.in.Next()
	if !ok {
		return value.Row{}, false
	}
	execCompiled(x.ctx, r, x.cmds)
	return r, true
}

func (x *rowXiIter) Close() { x.in.Close() }

// openRowXiGroup implements the hash-bucket Γ-Ξ: it materializes the input,
// fires S1/S2/S3 per first-occurrence group, and streams the input rows
// unchanged — the slot twin of XiGroup.Eval.
func openRowXiGroup(x XiGroup, n *Node, ctx *Ctx, env value.Tuple) RowIter {
	in := n.Kids[0]
	by := slotsOf(in.Schema.Lay, x.By)
	rows := drainRows(ctx, TripGroup, in.open(ctx, env))
	// Ξ-group passes its input through, so its output cardinality says
	// nothing about the bucket count; size the table by the textbook
	// distinct-keys fraction of the input instead.
	buckets := bucketRows(rows, by, len(rows)/3+1)
	c := n.scope(in.Schema, env)
	s1 := c.commands(x.S1)
	s2 := c.commands(x.S2)
	s3 := c.commands(x.S3)
	for i := 0; i < buckets.n(); i++ {
		grp := buckets.group(i)
		execCompiled(ctx, grp[0], s1)
		for _, r := range grp {
			execCompiled(ctx, r, s2)
		}
		execCompiled(ctx, grp[len(grp)-1], s3)
	}
	return &rowSliceIter{rows: rows}
}

// cmpRowsDirs is the three-way sort comparison of the row engine's Sort
// breaker, value.Compare3 per key. Empty values sort first on ascending keys
// and last on descending ones.
func cmpRowsDirs(a, b value.Row, by []int, dirs []bool) int {
	for i, s := range by {
		c := value.Compare3(a.Vals[s], b.Vals[s])
		if c == 0 {
			continue
		}
		if i < len(dirs) && dirs[i] {
			return -c
		}
		return c
	}
	return 0
}

type rowCrossIter struct {
	left  RowIter
	right []value.Row
	lay   *value.Layout

	cur  value.Row
	pos  int
	done bool
	slab rowSlab
}

func (c *rowCrossIter) Next() (value.Row, bool) {
	for {
		if c.done {
			return value.Row{}, false
		}
		if c.pos >= 0 && c.pos < len(c.right) {
			r := value.ConcatRows(c.lay, c.slab.take(c.lay.Width(), len(c.right)-c.pos), c.cur, c.right[c.pos])
			c.pos++
			return r, true
		}
		lt, ok := c.left.Next()
		if !ok {
			c.done = true
			return value.Row{}, false
		}
		c.cur = lt
		c.pos = 0
		if len(c.right) == 0 {
			c.pos = len(c.right)
		}
	}
}

func (c *rowCrossIter) Close() { c.left.Close() }

// ---- join family ----

type joinMode uint8

const (
	joinModeInner joinMode = iota
	joinModeSemi
	joinModeAnti
	joinModeOuter
)

// rowJoinPlan is the slot twin of joinPlan: build side materialized as rows,
// hashed on the key slots.
type rowJoinPlan struct {
	lSlots   []int
	rSlots   []int
	residual RowExpr // over the concatenated layout
	catLay   *value.Layout
	hash     rowBuckets
	right    []value.Row
	useHash  bool
	// probe is the one concatenated row the residual is evaluated on: a
	// predicate reads slots and keeps nothing of the row.
	probe []value.Value
}

func (jp *rowJoinPlan) candidates(lt value.Row) []value.Row {
	if jp.useHash {
		return jp.hash.lookup(rowKey(lt, jp.lSlots))
	}
	return jp.right
}

func (jp *rowJoinPlan) residualHolds(ctx *Ctx, lt, rt value.Row) bool {
	return value.EffectiveBool(jp.residual(ctx, value.ConcatRows(jp.catLay, jp.probe, lt, rt)))
}

func (jp *rowJoinPlan) matches(ctx *Ctx, lt value.Row, dst []value.Row) []value.Row {
	cand := jp.candidates(lt)
	if jp.residual == nil {
		return cand
	}
	dst = dst[:0]
	for _, rt := range cand {
		if jp.residualHolds(ctx, lt, rt) {
			dst = append(dst, rt)
		}
	}
	return dst
}

func (jp *rowJoinPlan) anyMatch(ctx *Ctx, lt value.Row) bool {
	cand := jp.candidates(lt)
	if jp.residual == nil {
		return len(cand) > 0
	}
	for _, rt := range cand {
		if jp.residualHolds(ctx, lt, rt) {
			return true
		}
	}
	return false
}

type rowJoinIter struct {
	left RowIter
	jp   rowJoinPlan
	mode joinMode
	lay  *value.Layout // output layout (concat for inner/outer, left for semi/anti)
	ctx  *Ctx

	gSlot   int
	def     value.Value // ⟕: f(), what g holds where a left tuple has no partner
	padFrom int         // first right slot in the concatenated layout
	cur     value.Row
	pending []value.Row
	pool    []value.Row
	pos     int
	slab    rowSlab
}

func openRowJoin(n *Node, pred Expr, ctx *Ctx, env value.Tuple,
	mode joinMode, g string, def SeqFunc) RowIter {
	l, r := n.Kids[0], n.Kids[1]
	lsc, rsc := l.Schema, r.Schema
	// ⋈ and ⟕ emit l ◦ r, their resolved layout; ⋉ and ▷ emit left rows and
	// need the concatenation only to compile the predicate against.
	catLay := n.Schema.Lay
	if mode == joinModeSemi || mode == joinModeAnti {
		catLay, _ = lsc.Lay.Concat(rsc.Lay)
	}
	gSlot := -1
	if mode == joinModeOuter {
		gSlot, _ = catLay.Slot(g)
	}

	left := l.open(ctx, env)
	jp := rowJoinPlan{catLay: catLay, right: drainRows(ctx, TripBuild, r.open(ctx, env))}

	if pairs, residual, ok := splitEqPred(pred, NameSet(lsc.Lay.Names(), true), NameSet(rsc.Lay.Names(), true)); ok {
		var lKeys, rKeys []string
		for _, p := range pairs {
			lKeys = append(lKeys, p.Left)
			rKeys = append(rKeys, p.Right)
		}
		jp.lSlots = slotsOf(lsc.Lay, lKeys)
		jp.rSlots = slotsOf(rsc.Lay, rKeys)
		jp.hash = bucketRows(jp.right, jp.rSlots, len(jp.right))
		jp.useHash = true
		pred = residual
	}
	if pred != nil {
		// The equalities a hash join drops hold no nested plan, so the
		// residual takes the node's sub-plans in the predicate's order.
		c := n.scope(Schema{Lay: catLay}, env)
		jp.residual = c.expr(pred)
	}
	if jp.residual != nil {
		jp.probe = make([]value.Value, catLay.Width())
	}

	it := &rowJoinIter{left: left, jp: jp, mode: mode, lay: n.Schema.Lay, ctx: ctx,
		gSlot: gSlot, padFrom: lsc.Lay.Width()}
	if mode == joinModeOuter {
		it.def = emptyGroup(def, rsc.Lay)
	}
	return it
}

func (j *rowJoinIter) Next() (value.Row, bool) {
	for {
		if j.pos < len(j.pending) {
			vals := j.slab.take(j.lay.Width(), len(j.pending)-j.pos)
			r := value.ConcatRows(j.lay, vals, j.cur, j.pending[j.pos])
			j.pos++
			return r, true
		}
		lt, ok := j.left.Next()
		if !ok {
			return value.Row{}, false
		}
		// The probe side streams — no accounting, but it is a fault-injection
		// boundary (a real allocator can fail growing the match pool here).
		j.ctx.Fault(TripProbe)
		switch j.mode {
		case joinModeSemi:
			if j.jp.anyMatch(j.ctx, lt) {
				return lt, true
			}
		case joinModeAnti:
			if !j.jp.anyMatch(j.ctx, lt) {
				return lt, true
			}
		case joinModeInner:
			j.cur = lt
			j.pool = j.jp.matches(j.ctx, lt, j.pool)
			j.pending = j.pool
			j.pos = 0
		case joinModeOuter:
			ms := j.jp.matches(j.ctx, lt, j.pool)
			if len(ms) == 0 {
				return padOuter(&j.slab, j.lay, lt, j.padFrom, j.gSlot, j.def), true
			}
			j.cur = lt
			j.pool = ms
			j.pending = ms
			j.pos = 0
		}
	}
}

func (j *rowJoinIter) Close() { j.left.Close() }

// emptyGroup is f() over members of lay: the default ⟕ puts into g. It is
// what applier(f, lay) yields for no rows, without a charge for holding it.
func emptyGroup(f SeqFunc, lay *value.Layout) value.Value {
	switch w := f.(type) {
	case SFIdent:
		return value.WrapRows(lay, nil)
	case SFProject:
		return value.RowSeqOfFlat(value.NewLayout(w.Attrs...), nil)
	case SFAgg:
		return aggregate(w.Fn, nil)
	case SFFiltered:
		return emptyGroup(w.Inner, lay)
	default:
		return value.Int(0) // count
	}
}

// padOuter builds the ⟕ row of a left tuple without partner: the right
// slots ⊥, the default in g.
func padOuter(slab *rowSlab, lay *value.Layout, lt value.Row, padFrom, gSlot int, def value.Value) value.Row {
	out := slab.extend(lay, lt, 0)
	for i := padFrom; i < len(out.Vals); i++ {
		out.Vals[i] = value.Null{}
	}
	out.Vals[gSlot] = def
	return out
}

// ---- grouping ----

func openRowGroupUnary(g GroupUnary, n *Node, ctx *Ctx, env value.Tuple) RowIter {
	sc, insc := n.Schema, n.Kids[0].Schema
	by := slotsOf(insc.Lay, g.By)
	gSlot, _ := sc.Lay.Slot(g.G)
	outBy := slotsOf(sc.Lay, g.By)
	rows := drainRows(ctx, TripGroup, n.Kids[0].open(ctx, env))
	c := n.scope(insc, env)
	apply := c.applier(g.F, insc.Lay)

	// Γ's output cardinality is its distinct-key count: pre-size the hash
	// table and key list from the cost model's estimate instead of growing
	// from Go map defaults.
	hint := ctx.cardHint(g, len(rows))
	out := make([]value.Row, 0, hint)
	var slab rowSlab
	emit := func(key value.Row, v value.Value, more int) {
		vals := slab.take(sc.Lay.Width(), more)
		for i, s := range by {
			vals[outBy[i]] = key.Vals[s]
		}
		vals[gSlot] = v
		out = append(out, value.Row{Lay: sc.Lay, Vals: vals})
	}

	if g.Theta == value.CmpEq {
		buckets := bucketRows(rows, by, hint)
		for i := 0; i < buckets.n(); i++ {
			grp := buckets.group(i)
			emit(grp[0], apply(ctx, grp), buckets.n()-i)
		}
		return &rowSliceIter{rows: out}
	}

	// General θ: compare every distinct key against every input row.
	var keyRows []value.Row
	seen := map[value.HashKey]bool{}
	for _, r := range rows {
		k := rowKey(r, by)
		if !seen[k] {
			seen[k] = true
			keyRows = append(keyRows, r)
		}
	}
	for i, kr := range keyRows {
		var grp []value.Row
		for _, r := range rows {
			if thetaMatchRows(kr, r, by, by, g.Theta) {
				grp = append(grp, r)
			}
		}
		emit(kr, apply(ctx, grp), len(keyRows)-i)
	}
	return &rowSliceIter{rows: out}
}

// openRowGroupSelf annotates each input row with F applied to its equality
// group, preserving input order (unlike Γ, which emits one row per group).
func openRowGroupSelf(g GroupSelf, n *Node, ctx *Ctx, env value.Tuple) RowIter {
	sc, insc := n.Schema, n.Kids[0].Schema
	by := slotsOf(insc.Lay, g.By)
	gSlot, _ := sc.Lay.Slot(g.G)
	rows := drainRows(ctx, TripGroup, n.Kids[0].open(ctx, env))
	c := n.scope(insc, env)
	apply := c.applier(g.F, insc.Lay)

	// Groups are numbered as the rows first meet them, so applying F group
	// by group is applying it in input order.
	buckets := bucketRows(rows, by, len(rows))
	applied := make([]value.Value, buckets.n())
	for i := range applied {
		applied[i] = apply(ctx, buckets.group(i))
	}
	out := make([]value.Row, len(rows))
	var slab rowSlab
	for i, r := range rows {
		out[i] = slab.extend(sc.Lay, r, len(rows)-i)
		out[i].Vals[gSlot] = applied[buckets.gid[i]]
	}
	return &rowSliceIter{rows: out}
}

func thetaMatchRows(a, b value.Row, as, bs []int, op value.CmpOp) bool {
	for i := range as {
		if !value.CompareAtomic(a.Vals[as[i]], b.Vals[bs[i]], op) {
			return false
		}
	}
	return true
}

// rightGroups is the right input of a binary Γ and f over its groups. For
// θ '=' the input is bucketed on the key and f applied once per distinct
// key, so shared groups are materialized once (and, like the map engine's
// shared bucket slices, shared as values across output tuples); any other θ
// scans it per left tuple.
type rightGroups struct {
	apply          rowsFunc
	lSlots, rSlots []int
	theta          value.CmpOp

	hash    rowBuckets
	applied map[value.HashKey]value.Value
	scan    []value.Row
}

func newRightGroups(n *Node, lAttrs, rAttrs []string, theta value.CmpOp, f SeqFunc, env value.Tuple) rightGroups {
	lsc, rsc := n.Kids[0].Schema, n.Kids[1].Schema
	c := n.scope(rsc, env)
	return rightGroups{apply: c.applier(f, rsc.Lay), theta: theta,
		lSlots: slotsOf(lsc.Lay, lAttrs), rSlots: slotsOf(rsc.Lay, rAttrs)}
}

func (g *rightGroups) build(rows []value.Row) {
	if g.theta == value.CmpEq {
		g.hash = bucketRows(rows, g.rSlots, len(rows))
		g.applied = make(map[value.HashKey]value.Value, g.hash.n())
		return
	}
	g.scan = rows
}

// of is f over the right tuples that stand in θ to lt.
func (g *rightGroups) of(ctx *Ctx, lt value.Row) value.Value {
	if g.applied != nil {
		k := rowKey(lt, g.lSlots)
		gv, cached := g.applied[k]
		if !cached {
			gv = g.apply(ctx, g.hash.lookup(k))
			g.applied[k] = gv
		}
		return gv
	}
	var grp []value.Row
	for _, r := range g.scan {
		if thetaMatchRows(lt, r, g.lSlots, g.rSlots, g.theta) {
			grp = append(grp, r)
		}
	}
	return g.apply(ctx, grp)
}

func openRowGroupBinary(g GroupBinary, n *Node, ctx *Ctx, env value.Tuple) RowIter {
	gSlot, _ := n.Schema.Lay.Slot(g.G)
	it := &rowGroupBinaryIter{left: n.Kids[0].open(ctx, env), lay: n.Schema.Lay, gSlot: gSlot, ctx: ctx,
		right: newRightGroups(n, g.LAttrs, g.RAttrs, g.Theta, g.F, env)}
	// The build side materializes lazily on the first left tuple, so an
	// empty left input never evaluates R — matching GroupBinary.Eval's
	// short-circuit.
	it.build = func() { it.right.build(drainRows(ctx, TripGroup, n.Kids[1].open(ctx, env))) }
	return it
}

type rowGroupBinaryIter struct {
	left  RowIter
	lay   *value.Layout
	gSlot int
	ctx   *Ctx
	right rightGroups

	// build materializes the right input on the first left tuple.
	build func()
	built bool

	slab rowSlab
}

func (g *rowGroupBinaryIter) Next() (value.Row, bool) {
	lt, ok := g.left.Next()
	if !ok {
		return value.Row{}, false
	}
	if !g.built {
		g.built = true
		g.build()
	}
	out := g.slab.extend(g.lay, lt, 0)
	out.Vals[g.gSlot] = g.right.of(g.ctx, lt)
	return out, true
}

func (g *rowGroupBinaryIter) Close() { g.left.Close() }

// ---- unnest ----

// openRowUnnest builds µ (pad=true) / µD (pad=false): the group attribute's
// tuples are spliced into slots computed at plan time. Attributes of the
// inner tuples that collide with kept input attributes overwrite them,
// matching the map engine's Concat semantics.
func openRowUnnest(n *Node, attr string, innerAttrs []string, ctx *Ctx, env value.Tuple, pad bool) RowIter {
	sc, insc := n.Schema, n.Kids[0].Schema
	var inner *value.Layout
	if nested := insc.nested(attr); nested != nil {
		inner = nested.Lay
	}
	if innerAttrs != nil {
		inner = value.NewLayout(innerAttrs...)
	}
	gSlot, _ := insc.Lay.Slot(attr)
	// Base mapping: kept input slots into the output layout.
	baseLay, baseSrc := insc.Lay.Drop([]string{attr})
	baseDst := slotsOf(sc.Lay, baseLay.Names())
	// Inner mapping: group attributes into the output layout (overwriting
	// colliding base slots — the Concat right-hand side wins).
	innerNames := inner.Names()
	innerDst := slotsOf(sc.Lay, innerNames)
	it := &rowUnnestIter{in: n.Kids[0].open(ctx, env), lay: sc.Lay, gSlot: gSlot,
		baseSrc: baseSrc, baseDst: baseDst,
		innerNames: innerNames, innerDst: innerDst, pad: pad, ctx: ctx}
	if !pad {
		it.dedup = map[value.HashKey]bool{}
	}
	return it
}

type rowUnnestIter struct {
	in         RowIter
	lay        *value.Layout
	gSlot      int
	baseSrc    []int
	baseDst    []int
	innerNames []string
	innerDst   []int
	pad        bool // µ pads empty groups with ⊥; µD skips them

	cur      value.Row
	pendRows value.RowSeq // the current group
	pendN    int
	pos      int

	// Splice cache for RowSeq payloads: innerSrc[i] is the slot of
	// innerNames[i] in the payload layout, recomputed only when the payload
	// layout changes (normally once — every group of one Γ shares it).
	innerLay *value.Layout
	innerSrc []int

	dedup   map[value.HashKey]bool // µD: the current group's member keys
	scratch []int                  // KeyOfRow slot scratch, reused across members
	ctx     *Ctx
	slab    rowSlab
}

// base starts an output row with the kept input slots. The members left in
// the group are the rows still to come (what µD's duplicates leave over of a
// chunk serves the next group).
func (u *rowUnnestIter) base() []value.Value {
	vals := u.slab.take(u.lay.Width(), u.pendN-u.pos+1)
	for i, s := range u.baseSrc {
		vals[u.baseDst[i]] = u.cur.Vals[s]
	}
	return vals
}

// spliceFor points the inner-attribute splice at a payload layout.
func (u *rowUnnestIter) spliceFor(lay *value.Layout) {
	if u.innerLay == lay {
		return
	}
	u.innerLay = lay
	if cap(u.innerSrc) < len(u.innerNames) {
		u.innerSrc = make([]int, len(u.innerNames))
	}
	u.innerSrc = u.innerSrc[:len(u.innerNames)]
	for i, n := range u.innerNames {
		if s, ok := lay.Slot(n); ok {
			u.innerSrc[i] = s
		} else {
			u.innerSrc[i] = -1
		}
	}
}

func (u *rowUnnestIter) Next() (value.Row, bool) {
	for {
		for u.pos < u.pendN {
			i := u.pos
			u.pos++
			g := u.pendRows.At(i)
			if u.dedup != nil {
				var k value.HashKey
				k, u.scratch = value.KeyOfRow(g, u.scratch)
				if u.dedup[k] {
					continue
				}
				u.ctx.charge(TripDedup, 0, dedupEntryBytes)
				u.dedup[k] = true
			}
			vals := u.base()
			for j, s := range u.innerSrc {
				if s >= 0 {
					if v := g.Vals[s]; v != nil {
						vals[u.innerDst[j]] = v
					}
				}
			}
			return value.Row{Lay: u.lay, Vals: vals}, true
		}
		r, ok := u.in.Next()
		if !ok {
			return value.Row{}, false
		}
		u.cur = r
		// Anything but a tuple sequence unnests as the empty group.
		u.pendRows, _ = r.Vals[u.gSlot].(value.RowSeq)
		u.pendN = u.pendRows.Len()
		if u.pendN > 0 {
			u.spliceFor(u.pendRows.Lay())
		}
		u.pos = 0
		if !u.pad {
			clear(u.dedup)
			continue
		}
		if u.pendN == 0 {
			vals := u.base()
			for _, d := range u.innerDst {
				vals[d] = value.Null{}
			}
			return value.Row{Lay: u.lay, Vals: vals}, true
		}
	}
}

func (u *rowUnnestIter) Close() { u.in.Close() }
