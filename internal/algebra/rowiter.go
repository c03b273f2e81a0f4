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
// attribute→slot mapping once per plan and gives its node the opener that
// builds its iterator from the slots, layouts and key pairs typing it
// derived; opening a plan runs the openers of the resolved nodes — each opens
// its inputs, compiles its subscripts against the environment and builds its
// state, and types nothing again — and the iterators then produce rows whose
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
		plLay, slots := lay.Project(w.Attrs)
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

// openUnnestMap builds Υ over e: over a path it walks the selection itself,
// over anything else the items of e's value.
func (n *Node) openUnnestMap(e Expr, lay *value.Layout, slot, posSlot int, ctx *Ctx, env value.Tuple) RowIter {
	c := n.scope(n.Kids[0].Schema, env)
	u := &rowUnnestMapIter{in: n.Kids[0].open(ctx, env), lay: lay, slot: slot, posSlot: posSlot, ctx: ctx}
	if p, ok := e.(PathOf); ok {
		u.e, u.path, u.byPath, u.nodes = c.expr(p.Input), p.Path, true, u.first[:0]
	} else {
		u.e = c.expr(e)
	}
	return u
}

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

// openXiGroup implements the hash-bucket Γ-Ξ: it materializes the input,
// fires S1/S2/S3 per first-occurrence group, and streams the input rows
// unchanged — the slot twin of XiGroup.Eval.
func (n *Node) openXiGroup(x XiGroup, by []int, ctx *Ctx, env value.Tuple) RowIter {
	in := n.Kids[0]
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

// openSort is the order-restoration breaker: it materializes its input into
// a pooled buffer (reused across opens — emitted Rows are value copies, so
// recycling the buffer never aliases them) and sorts it in place with a
// monomorphic comparison instead of sort.Sort's interface dispatch.
func openSort(in RowIter, by []int, dirs []bool, ctx *Ctx) RowIter {
	rows := drainRowsInto(ctx, TripSort, in, getSortBuf())
	slices.SortStableFunc(rows, func(a, b value.Row) int {
		return cmpRowsDirs(a, b, by, dirs)
	})
	return &rowSliceIter{rows: rows, pooled: true}
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

// rowCrossIter is ×. Its right input is materialized on the first left row,
// so an empty left input never evaluates it — as in Cross.Eval.
type rowCrossIter struct {
	left  RowIter
	build *Node // the right input, until it is built
	env   value.Tuple
	ctx   *Ctx
	lay   *value.Layout

	right []value.Row
	cur   value.Row
	pos   int
	slab  rowSlab
}

func (c *rowCrossIter) Next() (value.Row, bool) {
	for {
		if c.pos < len(c.right) {
			r := value.ConcatRows(c.lay, c.slab.take(c.lay.Width(), len(c.right)-c.pos), c.cur, c.right[c.pos])
			c.pos++
			return r, true
		}
		lt, ok := c.left.Next()
		if !ok {
			return value.Row{}, false
		}
		if c.build != nil {
			c.right = drainRows(c.ctx, TripBuild, c.build.open(c.ctx, c.env))
			c.build = nil
		}
		c.cur, c.pos = lt, 0
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

// joinSpec is what the resolver derived for a ⋈, ⋉, ▷ or ⟕ (Node.join):
// read by every open of the node, written by none.
type joinSpec struct {
	mode joinMode
	lay  *value.Layout // the output: l ◦ r for ⋈ and ⟕, l for ⋉ and ▷
	cat  *value.Layout // l ◦ r, what the residual compiles against
	// lSlots and rSlots are the slots of the equi-join key pairs, on which
	// the build side is hashed when there are any; residual is the rest of
	// the predicate (all of it when there are none).
	lSlots, rSlots []int
	residual       Expr
	padFrom        int         // ⟕: the first right slot of cat
	gSlot          int         // ⟕: the slot of g
	def            value.Value // ⟕: f(), what g holds where a left tuple has no partner
}

// rowJoinIter is the order-preserving join family: it probes the build side
// in left order with order-preserving buckets, which yields exactly the order
// of the definitional σp(e1 × e2). The build side — the right input, hashed
// on the key slots — is materialized on the first left row, so an empty
// left input never evaluates it, as in Join.Eval.
type rowJoinIter struct {
	*joinSpec
	left RowIter
	n    *Node // the right input is n.Kids[1]; the residual takes n's sub-plans
	env  value.Tuple
	ctx  *Ctx

	built bool
	right []value.Row
	hash  rowBuckets
	pred  RowExpr // the compiled residual
	// probe is the one concatenated row the residual is evaluated on: a
	// predicate reads slots and keeps nothing of the row.
	probe []value.Value

	cur     value.Row
	pending []value.Row
	pool    []value.Row
	pos     int
	slab    rowSlab
}

// build materializes and hashes the right input and compiles the residual.
func (j *rowJoinIter) build() {
	j.built = true
	j.right = drainRows(j.ctx, TripBuild, j.n.Kids[1].open(j.ctx, j.env))
	if len(j.rSlots) > 0 {
		j.hash = bucketRows(j.right, j.rSlots, len(j.right))
	}
	if j.residual != nil {
		// The equalities a hash join drops hold no nested plan, so the
		// residual takes the node's sub-plans in the predicate's order.
		c := j.n.scope(Schema{Lay: j.cat}, j.env)
		j.pred = c.expr(j.residual)
		j.probe = make([]value.Value, j.cat.Width())
	}
}

func (j *rowJoinIter) candidates(lt value.Row) []value.Row {
	if len(j.lSlots) > 0 {
		return j.hash.lookup(rowKey(lt, j.lSlots))
	}
	return j.right
}

func (j *rowJoinIter) residualHolds(lt, rt value.Row) bool {
	return value.EffectiveBool(j.pred(j.ctx, value.ConcatRows(j.cat, j.probe, lt, rt)))
}

// matches returns the right rows joining with lt, in right order.
func (j *rowJoinIter) matches(lt value.Row) []value.Row {
	cand := j.candidates(lt)
	if j.pred == nil {
		return cand
	}
	j.pool = j.pool[:0]
	for _, rt := range cand {
		if j.residualHolds(lt, rt) {
			j.pool = append(j.pool, rt)
		}
	}
	return j.pool
}

func (j *rowJoinIter) anyMatch(lt value.Row) bool {
	cand := j.candidates(lt)
	if j.pred == nil {
		return len(cand) > 0
	}
	for _, rt := range cand {
		if j.residualHolds(lt, rt) {
			return true
		}
	}
	return false
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
		if !j.built {
			j.build()
		}
		// The probe side streams — no accounting, but it is a fault-injection
		// boundary (a real allocator can fail growing the match pool here).
		j.ctx.Fault(TripProbe)
		switch j.mode {
		case joinModeSemi:
			if j.anyMatch(lt) {
				return lt, true
			}
		case joinModeAnti:
			if !j.anyMatch(lt) {
				return lt, true
			}
		default:
			ms := j.matches(lt)
			if len(ms) == 0 && j.mode == joinModeOuter {
				return padOuter(&j.slab, j.lay, lt, j.padFrom, j.gSlot, j.def), true
			}
			j.cur, j.pending, j.pos = lt, ms, 0
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

// openGroupUnary is Γ: one output row per group, the key slots followed by g.
func (n *Node) openGroupUnary(g GroupUnary, by []int, lay *value.Layout, ctx *Ctx, env value.Tuple) RowIter {
	insc := n.Kids[0].Schema
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
		vals := slab.take(lay.Width(), more)
		for i, s := range by {
			vals[i] = key.Vals[s]
		}
		vals[len(by)] = v
		out = append(out, value.Row{Lay: lay, Vals: vals})
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

// openGroupSelf annotates each input row with f applied to its equality
// group, preserving input order (unlike Γ, which emits one row per group).
func (n *Node) openGroupSelf(f SeqFunc, by []int, lay *value.Layout, ctx *Ctx, env value.Tuple) RowIter {
	insc := n.Kids[0].Schema
	rows := drainRows(ctx, TripGroup, n.Kids[0].open(ctx, env))
	c := n.scope(insc, env)
	apply := c.applier(f, insc.Lay)

	// Groups are numbered as the rows first meet them, so applying f group
	// by group is applying it in input order.
	buckets := bucketRows(rows, by, len(rows))
	applied := make([]value.Value, buckets.n())
	for i := range applied {
		applied[i] = apply(ctx, buckets.group(i))
	}
	out := make([]value.Row, len(rows))
	var slab rowSlab
	gSlot := lay.Width() - 1
	for i, r := range rows {
		out[i] = slab.extend(lay, r, len(rows)-i)
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

// rowGroupBinaryIter is binary Γ: every left row extended by g, f over the
// right rows standing in θ to it. For θ '=' the right input is bucketed on
// the key and f applied once per distinct key, so shared groups are
// materialized once (and, like the map engine's shared bucket slices, shared
// as values across output tuples); any other θ scans it per left row. The
// right input is materialized on the first left row, so an empty left input
// never evaluates it — as in GroupBinary.Eval.
type rowGroupBinaryIter struct {
	left           RowIter
	n              *Node // the right input is n.Kids[1]; f takes n's sub-plans
	f              SeqFunc
	theta          value.CmpOp
	lSlots, rSlots []int
	env            value.Tuple
	lay            *value.Layout // g is its last slot
	ctx            *Ctx

	built   bool
	apply   rowsFunc
	hash    rowBuckets
	applied map[value.HashKey]value.Value
	scan    []value.Row
	slab    rowSlab
}

// build materializes the right input and compiles f against its layout.
func (g *rowGroupBinaryIter) build() {
	g.built = true
	right := g.n.Kids[1]
	rows := drainRows(g.ctx, TripGroup, right.open(g.ctx, g.env))
	c := g.n.scope(right.Schema, g.env)
	g.apply = c.applier(g.f, right.Schema.Lay)
	if g.theta == value.CmpEq {
		g.hash = bucketRows(rows, g.rSlots, len(rows))
		g.applied = make(map[value.HashKey]value.Value, g.hash.n())
		return
	}
	g.scan = rows
}

// of is f over the right rows that stand in θ to lt.
func (g *rowGroupBinaryIter) of(lt value.Row) value.Value {
	if g.applied != nil {
		k := rowKey(lt, g.lSlots)
		gv, cached := g.applied[k]
		if !cached {
			gv = g.apply(g.ctx, g.hash.lookup(k))
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
	return g.apply(g.ctx, grp)
}

func (g *rowGroupBinaryIter) Next() (value.Row, bool) {
	lt, ok := g.left.Next()
	if !ok {
		return value.Row{}, false
	}
	if !g.built {
		g.build()
	}
	out := g.slab.extend(g.lay, lt, 0)
	out.Vals[g.lay.Width()-1] = g.of(lt)
	return out, true
}

func (g *rowGroupBinaryIter) Close() { g.left.Close() }

// ---- unnest ----

// rowUnnestIter is µD: the members of the group attribute's tuple sequence
// are spliced into the slots Node.unnestDistinct computed, after the kept
// input slots, a member equal to an earlier one of its group skipped.
// Attributes of the members that collide with kept input attributes
// overwrite them, matching the map engine's Concat semantics; an empty group
// yields nothing.
type rowUnnestIter struct {
	in         RowIter
	lay        *value.Layout
	gSlot      int
	baseSrc    []int // the input slot of each kept output slot, in order
	innerNames []string
	innerDst   []int

	cur      value.Row
	pendRows value.RowSeq // the current group
	pendN    int
	pos      int

	// Splice cache for RowSeq payloads: innerSrc[i] is the slot of
	// innerNames[i] in the payload layout, recomputed only when the payload
	// layout changes (normally once — every group of one Γ shares it).
	innerLay *value.Layout
	innerSrc []int

	dedup   map[value.HashKey]bool // the current group's member keys
	scratch []int                  // KeyOfRow slot scratch, reused across members
	ctx     *Ctx
	slab    rowSlab
}

// base starts an output row with the kept input slots. The members left in
// the group are the rows still to come (what duplicates leave over of a
// chunk serves the next group).
func (u *rowUnnestIter) base() []value.Value {
	vals := u.slab.take(u.lay.Width(), u.pendN-u.pos+1)
	for i, s := range u.baseSrc {
		vals[i] = u.cur.Vals[s]
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
			var k value.HashKey
			k, u.scratch = value.KeyOfRow(g, u.scratch)
			if u.dedup[k] {
				continue
			}
			u.ctx.charge(TripDedup, 0, dedupEntryBytes)
			u.dedup[k] = true
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
		clear(u.dedup)
	}
}

func (u *rowUnnestIter) Close() { u.in.Close() }
