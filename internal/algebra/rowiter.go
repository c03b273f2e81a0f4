package algebra

import (
	"slices"

	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

// This file is the streaming engine: open-next-close iterators over
// value.Row, one per operator. Resolve (schema.go) fixes every operator's
// attribute→slot mapping once per plan and gives its node the opener that
// builds its iterator from the slots, layouts and key pairs typing it
// derived and the subscripts it compiled; opening a plan runs the openers of
// the resolved nodes — each opens its inputs and builds its iterator and
// expression state, and types and compiles nothing — and the iterators then
// produce rows whose value slices are cut from chunks the producing iterator
// owns (rowSlab: one allocation per chunk of rows, not per row — and often no
// slice at all: σ and Ξ pass rows through, ΠA′:A swaps the layout pointer and
// keeps the slice). Nested data is slot-native too: group payloads, e[a]
// bindings and nested-block results travel as value.RowSeq. No map tuple is
// ever on the data path; the definitional Eval methods are the oracle this
// engine is tested against, not a way to run an operator.
//
// Rows are immutable once emitted. Operators may retain received rows
// (sort, hash build, the group-detecting Ξ's previous row) without copying;
// producers therefore never hand out a value slice twice, and a retained row
// pins only the chunk it was cut from (at most slabMaxRows rows). The one
// write past a row's len is a χ run's (Node.cuts): its producer cuts each
// row with the room of the run's top layout, and each χ of the run writes
// its new slot there, in place, instead of copying the row one slot wider.

// RowIter is the slot-based iterator interface.
type RowIter interface {
	Next() (value.Row, bool)
	Close()
}

// drainRows appends an iterator's remaining rows to buf — a breaker's drain
// buffer, recycled or nil — and closes the iterator. It is the breaker-side
// cancellation point — a cancelled run stops materializing build sides, sort
// buffers and group inputs mid-drain — and the breaker-side budget charge
// point: every retained row debits the run's Budget under the caller's trip
// label (TripSort, TripBuild, ...).
func drainRows(ctx *Ctx, point string, it RowIter, buf []value.Row) []value.Row {
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

// rowsFunc is a sequence function compiled against the schema of the member
// rows it is applied to; up is the chain enclosing them.
type rowsFunc func(fr *frame, rows []value.Row, up *outer) value.Value

// applier compiles f for groups of member rows of the schema members, whose
// enclosing rows have the scope up, and returns with it the inner schema of
// the tuple sequence f produces (nil for count and the aggregates): count and
// the aggregates read slots, ΠA copies the projected slots into a flat RowSeq,
// and f ∘ σp compiles its predicate against the member schema. These are all
// the sequence functions there are: another one fails the operator. No value
// f returns holds the member slice, so the caller may reuse it at once.
func (c *compiler) applier(f SeqFunc, members Schema, up *scope) (rowsFunc, *Inner) {
	lay := members.Lay
	switch w := f.(type) {
	case SFCount:
		return func(_ *frame, rows []value.Row, _ *outer) value.Value {
			return value.Int(int64(len(rows)))
		}, nil
	case SFAgg:
		// A member layout without the attribute aggregates no items.
		slot, bound := lay.Slot(w.Attr)
		// aggregate retains nothing, so one item buffer serves every group.
		i := c.state()
		return func(fr *frame, rows []value.Row, _ *outer) value.Value {
			st := &fr.scratch[i]
			st.vals = st.vals[:0]
			for _, r := range rows {
				if bound {
					st.vals = value.AppendItems(st.vals, r.Vals[slot])
				}
			}
			return aggregate(w.Fn, st.vals)
		}, nil
	case SFProject:
		plLay, slots := lay.Project(w.Attrs)
		if plLay == nil || plLay.Width() == 0 {
			break // no row carries this projection
		}
		i := c.state()
		return func(fr *frame, rows []value.Row, _ *outer) value.Value {
			// The projected payload is a fresh flat backing — the Γ group
			// state the budget exists to bound — cut from the open's slab.
			fr.ctx.ChargeBytes(TripGroup, len(rows)*len(slots)*rowSlotBytes)
			var flat []value.Value
			if n := len(rows) * len(slots); n > 0 {
				flat = fr.scratch[i].slab.payload(n)[:0]
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
		}, &Inner{Lay: plLay, Nested: nestedKept(members.Nested, plLay)}
	case SFFiltered:
		pred := c.expr(w.Pred, scope{Schema: members, up: up})
		inner, out := c.applier(w.Inner, members, up)
		// f reads the kept rows and lets go, so one buffer serves all groups.
		i := c.state()
		return func(fr *frame, rows []value.Row, up *outer) value.Value {
			st := &fr.scratch[i]
			st.rows = st.rows[:0]
			for _, r := range rows {
				if value.EffectiveBool(pred(fr, r, up)) {
					st.rows = append(st.rows, r)
				}
			}
			return inner(fr, st.rows, up)
		}, out
	}
	c.failed = true
	return nil, nil
}

// ---- elementary iterators ----

// rowSliceIter emits rows held in a slice: □'s one row, or a breaker's
// output, whose working memory mem goes back on Close.
type rowSliceIter struct {
	rows []value.Row
	pos  int
	mem  *workMem
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
	if s.mem != nil {
		s.mem.release()
		s.mem = nil
	}
	s.rows = nil
}

// emitRows is the iterator over a breaker's output rows. w is the open's working
// memory, out among it; box, when the open has one, takes w to give it back.
func emitRows(out []value.Row, w workMem, box *workMem) RowIter {
	if box != nil {
		*box = w
	}
	return &rowSliceIter{rows: out, mem: box}
}

type rowSelectIter struct {
	in   RowIter
	pred RowExpr
	frame
	up *outer
}

func (s *rowSelectIter) Next() (value.Row, bool) {
	for {
		r, ok := s.in.Next()
		if !ok {
			return value.Row{}, false
		}
		if value.EffectiveBool(s.pred(&s.frame, r, s.up)) {
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
	room int
	slab rowSlab
}

func (m *rowSlotMapIter) Next() (value.Row, bool) {
	r, ok := m.in.Next()
	if !ok {
		return value.Row{}, false
	}
	return value.MapSlots(m.lay, m.slab.take(len(m.src), m.room, 0), m.src, r), true
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

// rowMapIter is χ. Inside a χ run (inPlace) its input row was cut with room
// for its new slot, which it writes in place: the output is the input's
// values one slot longer. Otherwise it copies the row into one it cuts with
// room for the run it starts.
type rowMapIter struct {
	in      RowIter
	lay     *value.Layout
	slot    int
	inPlace bool
	room    int
	e       RowExpr
	frame
	up   *outer
	slab rowSlab
}

func (m *rowMapIter) Next() (value.Row, bool) {
	r, ok := m.in.Next()
	if !ok {
		return value.Row{}, false
	}
	v := m.e(&m.frame, r, m.up)
	var out value.Row
	if m.inPlace {
		out = value.Row{Lay: m.lay, Vals: r.Vals[:m.slot+1]}
	} else {
		out = m.slab.extend(m.lay, r, m.room, 0)
	}
	out.Vals[m.slot] = v
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
	room    int
	slot    int
	posSlot int
	e       RowExpr
	path    xpath.Path
	names   *xpath.Names
	byPath  bool
	frame
	up *outer

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
			out := u.slab.extend(u.lay, u.cur, u.room, u.n-u.pos)
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
		u.refill(u.e(&u.frame, r, u.up))
	}
}

// refill takes the items of the next input row from e's value.
func (u *rowUnnestMapIter) refill(v value.Value) {
	if u.byPath {
		u.nodes = u.path.AppendNames(u.nodes[:0], v, u.names)
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
	frame
	up *outer
}

func (x *rowXiIter) Next() (value.Row, bool) {
	r, ok := x.in.Next()
	if !ok {
		return value.Row{}, false
	}
	execCompiled(&x.frame, r, x.up, x.cmds)
	return r, true
}

func (x *rowXiIter) Close() { x.in.Close() }

// openXiGroup implements the hash-bucket Γ-Ξ: it materializes the input,
// fires S1/S2/S3 per first-occurrence group, and streams the input rows
// unchanged — the slot twin of XiGroup.Eval.
func (n *Node) openXiGroup(by []int, s1, s2, s3 []compiledCmd, fr *frame, up *outer) RowIter {
	w, box := n.take()
	w.rows = drainRows(fr.ctx, TripGroup, n.Kids[0].open(fr.ctx, up), w.rows[:0])
	// Ξ-group passes its input through, so its output cardinality says
	// nothing about the bucket count; size the table by the textbook
	// distinct-keys fraction of the input instead.
	w.b.fill(w.rows, by, len(w.rows)/3+1)
	for i := 0; i < w.b.n(); i++ {
		grp := w.b.group(i)
		execCompiled(fr, grp[0], up, s1)
		for _, r := range grp {
			execCompiled(fr, r, up, s2)
		}
		execCompiled(fr, grp[len(grp)-1], up, s3)
	}
	return emitRows(w.rows, w, box)
}

// openSort is the order-restoration breaker: it materializes its input into
// its drain buffer and sorts it in place with a monomorphic comparison
// instead of sort.Sort's interface dispatch.
func (n *Node) openSort(by []int, dirs []bool, ctx *Ctx, up *outer) RowIter {
	w, box := n.take()
	w.rows = drainRows(ctx, TripSort, n.Kids[0].open(ctx, up), w.rows[:0])
	slices.SortStableFunc(w.rows, func(a, b value.Row) int {
		return cmpRowsDirs(a, b, by, dirs)
	})
	return emitRows(w.rows, w, box)
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

// ---- join family ----

type joinMode uint8

const (
	joinModeSemi joinMode = iota
	joinModeAnti
	joinModeOuter
)

// joinSpec is what the resolver derived for a ⋉, ▷ or ⟕ (Node.join):
// read by every open of the node, written by none.
type joinSpec struct {
	mode joinMode
	lay  *value.Layout // the output: l ◦ r for ⟕, l for ⋉ and ▷
	cat  *value.Layout // l ◦ r, what the residual compiles against
	// lSlots and rSlots are the slots of the equi-join key pairs, on which
	// the build side is hashed when there are any; pred is the rest of the
	// predicate (all of it when there are none), compiled against cat, nil
	// when nothing is left.
	lSlots, rSlots []int
	pred           RowExpr
	padFrom        int         // ⟕: the first right slot of cat
	gSlot          int         // ⟕: the slot of g
	def            value.Value // ⟕: f(), what g holds where a left tuple has no partner
}

// rowJoinIter is the order-preserving join family: it probes the build side
// in left order with order-preserving buckets, which yields exactly the order
// of the definitional σp(e1 × e2) — the stand-in for the order-preserving
// hash join of Claussen et al. the paper cites. The build side — the right
// input, hashed on the key slots — is materialized on the first left row, so
// an empty left input never evaluates it, as in their Eval.
type rowJoinIter struct {
	*joinSpec
	left RowIter
	join *Node // the join, until its right input is built
	frame
	up *outer

	room  int // what an output row is cut with (Node.room)
	right []value.Row
	hash  rowBuckets
	// probe is the one concatenated row the residual is evaluated on: a
	// predicate reads slots and keeps nothing of the row.
	probe []value.Value

	cur     value.Row
	pending []value.Row // the partners of cur still to emit
	pool    []value.Row
	slab    rowSlab
	mem     *workMem // where Close gives the build side's memory back, if anywhere
}

// materialize builds and hashes the right input.
func (j *rowJoinIter) materialize() {
	w, box := j.join.take()
	j.mem = box
	j.right = drainRows(j.ctx, TripBuild, j.join.Kids[1].open(j.ctx, j.up), w.rows[:0])
	j.join = nil
	if len(j.rSlots) > 0 {
		j.hash = w.b
		j.hash.fill(j.right, j.rSlots, len(j.right))
	}
	if j.pred != nil {
		j.probe = sized(w.vals, j.cat.Width())
	}
	j.pool = w.out[:0]
}

func (j *rowJoinIter) candidates(lt value.Row) []value.Row {
	if len(j.lSlots) > 0 {
		return j.hash.lookup(lt.Vals, j.lSlots)
	}
	return j.right
}

func (j *rowJoinIter) residualHolds(lt, rt value.Row) bool {
	return value.EffectiveBool(j.pred(&j.frame, value.ConcatRows(j.cat, j.probe, lt, rt), j.up))
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
		if len(j.pending) > 0 {
			vals := j.slab.take(j.lay.Width(), j.room, len(j.pending))
			r := value.ConcatRows(j.lay, vals, j.cur, j.pending[0])
			j.pending = j.pending[1:]
			return r, true
		}
		lt, ok := j.left.Next()
		if !ok {
			return value.Row{}, false
		}
		if j.join != nil {
			j.materialize()
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
		default: // ⟕, the one mode that concatenates
			ms := j.matches(lt)
			if len(ms) == 0 {
				return padOuter(&j.slab, j.lay, j.room, lt, j.padFrom, j.gSlot, j.def), true
			}
			j.cur, j.pending = lt, ms
		}
	}
}

func (j *rowJoinIter) Close() {
	j.left.Close()
	if m := j.mem; m != nil {
		m.rows, m.out, m.b, m.vals = j.right, j.pool, j.hash, j.probe
		m.release()
		j.mem = nil
	}
	j.right, j.pool, j.hash, j.probe, j.pending = nil, nil, rowBuckets{}, nil, nil
}

// emptyGroup is f(): the default ⟕ puts into g. It is what applier yields
// for no rows, without a charge for holding it — f ∘ σp never tests p then.
// known is false for a function outside the engine's inventory and a
// projection onto no attribute.
func emptyGroup(f SeqFunc) (v value.Value, known bool) {
	switch w := f.(type) {
	case SFCount:
		return value.Int(0), true
	case SFProject:
		if pl := value.NewLayout(w.Attrs...); pl != nil && pl.Width() > 0 {
			return value.RowSeqOfFlat(pl, nil), true
		}
	case SFAgg:
		return aggregate(w.Fn, nil), true
	case SFFiltered:
		return emptyGroup(w.Inner)
	}
	return nil, false
}

// padOuter builds the ⟕ row of a left tuple without partner: the right
// slots ⊥, the default in g.
func padOuter(slab *rowSlab, lay *value.Layout, room int, lt value.Row, padFrom, gSlot int, def value.Value) value.Row {
	out := slab.extend(lay, lt, room, 0)
	for i := padFrom; i < len(out.Vals); i++ {
		out.Vals[i] = value.Null{}
	}
	out.Vals[gSlot] = def
	return out
}

// ---- grouping ----

// openGroupUnary is Γ: one output row per group, the key slots followed by g.
func (n *Node) openGroupUnary(g GroupUnary, by []int, lay *value.Layout, apply rowsFunc, fr *frame, up *outer) RowIter {
	ctx := fr.ctx
	w, box := n.take()
	w.rows = drainRows(ctx, TripGroup, n.Kids[0].open(ctx, up), w.rows[:0])
	rows := w.rows

	// Γ emits at most one row per input row: with nothing recycled to size
	// it from, the output is sized by the input, as the key table is.
	out := w.out[:0]
	if out == nil {
		out = make([]value.Row, 0, len(rows))
	}
	var slab rowSlab
	room := n.room()
	emit := func(key value.Row, v value.Value, more int) {
		vals := slab.take(lay.Width(), room, more)
		for i, s := range by {
			vals[i] = key.Vals[s]
		}
		vals[len(by)] = v
		out = append(out, value.Row{Lay: lay, Vals: vals})
	}

	// The distinct keys in first-occurrence order, each with its group: the
	// rows of equal key for θ '=', else every input row standing in θ to it.
	w.b.fill(rows, by, len(rows))
	for i := 0; i < w.b.n(); i++ {
		grp := w.b.group(i)
		key := grp[0]
		if g.Theta != value.CmpEq {
			grp = nil
			for _, r := range rows {
				if thetaMatchRows(key, r, by, by, g.Theta) {
					grp = append(grp, r)
				}
			}
		}
		emit(key, apply(fr, grp, up), w.b.n()-i)
	}
	w.out = out
	return emitRows(out, w, box)
}

// openGroupSelf annotates each input row with f applied to its equality
// group, preserving input order (unlike Γ, which emits one row per group).
func (n *Node) openGroupSelf(by []int, lay *value.Layout, apply rowsFunc, fr *frame, up *outer) RowIter {
	w, box := n.take()
	w.rows = drainRows(fr.ctx, TripGroup, n.Kids[0].open(fr.ctx, up), w.rows[:0])
	rows := w.rows

	// Groups are numbered as the rows first meet them, so applying f group
	// by group is applying it in input order.
	w.b.fill(rows, by, len(rows))
	w.vals = sized(w.vals, w.b.n())
	for i := range w.vals {
		w.vals[i] = apply(fr, w.b.group(i), up)
	}
	w.out = sized(w.out, len(rows))
	var slab rowSlab
	gSlot, room := lay.Width()-1, n.room()
	for i, r := range rows {
		w.out[i] = slab.extend(lay, r, room, len(rows)-i)
		w.out[i].Vals[gSlot] = w.vals[w.b.gid[i]]
	}
	return emitRows(w.out, w, box)
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
// the key and f applied once per distinct left key, so a group is
// materialized once and shared as one value by the output rows of its key;
// any other θ scans it per left row. A left key the right input lacks joins
// the key table as a group of its own with no members, so f of the empty
// group, too, is applied once per distinct key: a projection's f charges
// the budget, and so consults the fault hook, even for no rows. The right
// input is materialized on the first left row, so an empty left input never
// evaluates it — as in GroupBinary.Eval.
type rowGroupBinaryIter struct {
	left           RowIter
	group          *Node    // the binary Γ, until its right input is built
	apply          rowsFunc // f, compiled against the right input's schema
	theta          value.CmpOp
	lSlots, rSlots []int
	lay            *value.Layout // g is its last slot
	room           int
	frame
	up *outer

	// rows is the right input, scanned per left row for θ other than =. For
	// θ '=' the first left row of each key the right input lacks follows it:
	// that key's first item in hash's key table.
	rows []value.Row
	hash rowBuckets
	// applied is f per group id of hash's key table, nil until a left row
	// first needs it: the right input's groups, then the left keys it lacks.
	applied []value.Value
	slab    rowSlab
	mem     *workMem // where Close gives the build side's memory back, if anywhere
}

// materialize builds the right input.
func (g *rowGroupBinaryIter) materialize() {
	w, box := g.group.take()
	g.mem = box
	g.rows = drainRows(g.ctx, TripGroup, g.group.Kids[1].open(g.ctx, g.up), w.rows[:0])
	g.group = nil
	if g.theta == value.CmpEq {
		g.hash = w.b
		g.hash.fill(g.rows, g.rSlots, len(g.rows))
		g.applied = sized(w.applied, g.hash.n())
	}
}

// of is f over the right rows that stand in θ to lt.
func (g *rowGroupBinaryIter) of(lt value.Row) value.Value {
	if g.theta == value.CmpEq {
		right := g.hash.rows
		id, added := g.hash.ids.Insert(g.hash.hash(lt.Vals, g.lSlots), int32(len(g.rows)), func(first int32) bool {
			if int(first) < len(right) {
				return value.SameSlots(right[first].Vals, g.rSlots, lt.Vals, g.lSlots)
			}
			return value.SameSlots(g.rows[first].Vals, g.lSlots, lt.Vals, g.lSlots)
		})
		if added {
			g.rows = append(g.rows, lt)
			g.applied = append(g.applied, nil)
		}
		if g.applied[id] == nil {
			var grp []value.Row
			if int(id) < g.hash.n() {
				grp = g.hash.group(int(id))
			}
			g.applied[id] = g.apply(&g.frame, grp, g.up)
		}
		return g.applied[id]
	}
	var grp []value.Row
	for _, r := range g.rows {
		if thetaMatchRows(lt, r, g.lSlots, g.rSlots, g.theta) {
			grp = append(grp, r)
		}
	}
	return g.apply(&g.frame, grp, g.up)
}

func (g *rowGroupBinaryIter) Next() (value.Row, bool) {
	lt, ok := g.left.Next()
	if !ok {
		return value.Row{}, false
	}
	if g.group != nil {
		g.materialize()
	}
	out := g.slab.extend(g.lay, lt, g.room, 0)
	out.Vals[g.lay.Width()-1] = g.of(lt)
	return out, true
}

func (g *rowGroupBinaryIter) Close() {
	g.left.Close()
	if m := g.mem; m != nil {
		m.rows, m.b, m.applied = g.rows, g.hash, g.applied
		m.release()
		g.mem = nil
	}
	g.rows, g.hash, g.applied = nil, rowBuckets{}, nil
}

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
	room       int
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

	// dedup numbers the current group's members by index, keyed on every
	// slot in canonical order, a nil one as NULL, so members holding one
	// value in different attributes key apart.
	dedup value.KeyTable
	ctx   *Ctx
	slab  rowSlab
}

// base starts an output row with the kept input slots. The members left in
// the group are the rows still to come (what duplicates leave over of a
// chunk serves the next group).
func (u *rowUnnestIter) base() []value.Value {
	vals := u.slab.take(u.lay.Width(), u.room, u.pendN-u.pos+1)
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
			canon := g.Lay.Canon()
			if _, added := u.dedup.Insert(value.HashSlots(g.Vals, canon), int32(i), func(first int32) bool {
				return value.SameSlots(u.pendRows.At(int(first)).Vals, canon, g.Vals, canon)
			}); !added {
				continue
			}
			u.ctx.charge(TripDedup, 0, dedupEntryBytes)
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
		u.dedup.Reset(u.pendN)
	}
}

func (u *rowUnnestIter) Close() { u.in.Close() }
