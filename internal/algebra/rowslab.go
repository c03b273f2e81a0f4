package algebra

import (
	"slices"

	"nalquery/internal/value"
)

// rowSlab hands a producing iterator the value slices of its output rows,
// and a payload builder (e[a], ΠA) the flat backings of its payloads, cut
// from chunks it allocates a few rows at a time — one allocation per chunk
// instead of one per row. A slice is never handed out twice. It comes with
// cap == len, so a row can never be appended into its neighbour, except on
// the producer of a χ run (Node.cuts): there a row is cut with the room of
// the run's top layout, and each χ of the run writes its slot past len in
// place, once, so the run's top row leaves it with cap == len again. Rows
// stay immutable after emit: nothing reads a row past its len. A consumer
// that retains a row keeps that row's chunk alive and nothing else: the
// allocation of at most slabMaxRows rows of one operator's room, or of
// slabMaxRows payloads of at most slabMaxRows values (docs/EXECUTION.md,
// "Row ownership and chunks").
type rowSlab struct {
	free []value.Value
	cut  int // values cut so far, at most slabMaxRows rows' worth
}

// slabMaxRows caps a chunk, bounding what one retained row can pin.
const slabMaxRows = 16

// take returns a zeroed slice of width values with capacity room: width
// itself, or on the producer of a χ run the width of the run's top row,
// whose χ fill the slots between (see rowSlab). fanout is the number of rows,
// this one included, the caller knows it is about to take (Υ: the items left
// in the current sequence). A new chunk is sized by the stream: it holds at
// least fanout rows and at least as much as the stream has had so far, this
// row included, up to slabMaxRows rows. So the first chunk of an open holds
// exactly the known fan-out (a three-row probe allocates three rows), chunks
// double from there whether or not a fan-out is known, and a long stream
// costs one chunk per slabMaxRows rows — a two-author book does not cost a
// chunk of its own. The stream is counted in values, so a payload builder,
// whose widths vary, never cuts a chunk much larger than what it has built.
//
// A chunk is the whole size class the allocator rounds its values up to
// (slices.Grow reports it), not just the values asked for: past 512 bytes
// the rounding and the allocation header cost up to an eighth of the chunk,
// and the rows that fit there cost nothing more. (It is one allocation, two
// in a race-detector build, which does not fold slices.Grow's make.)
func (s *rowSlab) take(width, room, fanout int) []value.Value {
	if len(s.free) < room {
		n := min(max(fanout*room, s.cut+room), slabMaxRows*room)
		s.cut = min(s.cut+n, slabMaxRows*room)
		s.free = slices.Grow([]value.Value(nil), n)
		s.free = s.free[:cap(s.free)]
	}
	vals := s.free[:width:room]
	s.free = s.free[room:]
	return vals
}

// payload returns a zeroed flat backing of width values for a payload builder
// (e[a], ΠA), whose widths vary with its selections or groups. One of at most
// slabMaxRows values is cut like a row; a wider one is allocated on its own,
// exactly, so it pins nothing but itself and no chunk is sized after it.
func (s *rowSlab) payload(width int) []value.Value {
	if width > slabMaxRows {
		return make([]value.Value, width)
	}
	return s.take(width, width, 0)
}

// extend takes a row that starts as a copy of r — the χ/Υ/Γ shape: the
// input's slots plus the new ones.
func (s *rowSlab) extend(lay *value.Layout, r value.Row, room, fanout int) value.Row {
	vals := s.take(lay.Width(), room, fanout)
	copy(vals, r.Vals)
	return value.Row{Lay: lay, Vals: vals}
}

// rowBuckets is a set of rows partitioned on a key: one flat array holding
// the groups back to back instead of one growing slice per group. Groups are
// numbered in order of first occurrence — the key table's ids — and keep
// their members in input order. The key table numbers the input rows by
// index, so a group's key is read off its first row, in place.
type rowBuckets struct {
	ids     value.KeyTable // key → group
	gid     []int32        // group of input row i
	starts  []int32        // group g is grouped[starts[g]:starts[g+1]]
	grouped []value.Row
	rows    []value.Row                       // fill's input
	by      []int                             // fill's key slots
	hash    func([]value.Value, []int) uint64 // value.HashSlots; tests hash keys alike
}

// fill partitions rows on the key slots into the table and arrays b holds:
// empty ones an earlier open of the same breaker gave back, or none. hint
// sizes the key table's slots, and on a first open its groups and offsets
// too.
func (b *rowBuckets) fill(rows []value.Row, by []int, hint int) {
	if b.starts == nil {
		b.starts = make([]int32, 0, hint+1)
	}
	if b.hash == nil {
		b.hash = value.HashSlots
	}
	b.rows, b.by = rows, by
	b.ids.Reset(hint)
	b.gid = sized(b.gid, len(rows))
	// Count members into starts[g+1], then turn the counts into offsets.
	b.starts = append(b.starts[:0], 0)
	for i, r := range rows {
		g, added := b.ids.Insert(b.hash(r.Vals, by), int32(i), func(first int32) bool {
			return value.SameSlots(rows[first].Vals, by, r.Vals, by)
		})
		if added {
			b.starts = append(b.starts, 0)
		}
		b.gid[i] = g
		b.starts[g+1]++
	}
	for g := 1; g < len(b.starts); g++ {
		b.starts[g] += b.starts[g-1]
	}
	// starts[g+1] is where group g ends. Placed from the last row on, each
	// row one place before its group's end, the rows leave starts[g+1] where
	// group g begins, and a shift by one makes that starts[g].
	b.grouped = sized(b.grouped, len(rows))
	for i := len(rows) - 1; i >= 0; i-- {
		end := &b.starts[b.gid[i]+1]
		*end--
		b.grouped[*end] = rows[i]
	}
	copy(b.starts, b.starts[1:])
	b.starts[len(b.starts)-1] = int32(len(rows))
}

// sized returns s holding n elements: s itself when it has the room, else a
// new slice. Kept elements are not cleared; the callers overwrite all n.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// n returns the number of groups.
func (b *rowBuckets) n() int { return len(b.starts) - 1 }

// group returns the members of group g. The slice cannot grow into the next
// group.
func (b *rowBuckets) group(g int) []value.Row {
	return b.grouped[b.starts[g]:b.starts[g+1]:b.starts[g+1]]
}

// lookup returns the members of the group whose key is the key of vals at
// slots, nil when there is none.
func (b *rowBuckets) lookup(vals []value.Value, slots []int) []value.Row {
	g := b.ids.Find(b.hash(vals, slots), func(first int32) bool {
		return value.SameSlots(b.rows[first].Vals, b.by, vals, slots)
	})
	if g < 0 {
		return nil
	}
	return b.group(int(g))
}

// ---- recycled working memory ----

// workMem is the working memory of one open of a pipeline breaker — Γ, Γ-Ξ,
// Γ-self, Sort, and the build side of ⋉, ▷, ⟕ and binary Γ. An open takes it
// from its node (Node.take), and the iterator's Close gives it back
// (workMem.release), so the next open of the node fills the same arrays
// instead of growing new ones. Only what no consumer can reach after Close goes back:
// the rows in these arrays are copies of rows consumers hold, no group
// payload holds a group array (applier: every sequence function copies what
// it keeps), and binary Γ's values per key stay in the rows they were emitted
// in — the array that held them is cleared. Row chunks (rowSlab) are never
// recycled.
type workMem struct {
	node    *Node         // the breaker it goes back to; nil while parked
	rows    []value.Row   // the drain buffer
	out     []value.Row   // the emitted rows; a join's matches
	b       rowBuckets    // the key table and its arrays
	vals    []value.Value // Γ-self's group values; a join's probe row
	applied []value.Value // binary Γ's group value per key table id
}

// take returns the working memory an earlier open of the breaker n gave back
// (the zero workMem when there is none) and the box its iterator gives the
// memory back in on Close. The first two opens of a node get no box: they
// allocate what they always did and leave nothing behind, so a plan run once
// or twice — an ad-hoc query, a cached plan whose documents change under it,
// a set-up pass — keeps no memory. From the third open on, the node keeps one
// spare box (Node.spare) for as long as the node itself is reachable.
func (n *Node) take() (workMem, *workMem) {
	if n.opens.Load() < 2 && n.opens.Add(1) <= 2 {
		return workMem{}, nil
	}
	if m := n.spare.Swap(nil); m != nil {
		m.node = n
		return *m, m
	}
	box := &workMem{node: n}
	return *box, box
}

// release gives an open's working memory back to its node, as the node's
// spare. When opens overlap, a release replaces the spare it finds, so a box
// is lost only when two opens close with no open between them. The arrays
// and binary Γ's values per key are cleared first, through their capacity,
// so a spare pins no row chunk and no value. The key table holds no key and
// no pointer, and stays as it is: the next open's fill clears as many of its
// slots as its own input needs, right before its inserts, so the clearing
// brings into cache the slots the inserts use and costs what that open
// holds, not what the box has room for. An open whose input filled under a
// quarter of a large drain buffer gives back an empty box instead: what a
// node keeps follows its recent inputs, not the largest it ever had.
//
// The box's node field is nil while it is parked only so that a finalizer
// set on the box, as in TestParkedMemoryLivesWithItsNode, can observe it
// being freed: runtime.SetFinalizer runs none in a cycle. The collector
// itself would free a node and its box together either way.
func (m *workMem) release() {
	n := m.node
	if cap(m.rows) > keepRows && 4*len(m.rows) < cap(m.rows) {
		*m = workMem{}
	}
	clear(m.rows[:cap(m.rows)])
	clear(m.out[:cap(m.out)])
	clear(m.vals[:cap(m.vals)])
	clear(m.b.grouped[:cap(m.b.grouped)])
	m.b.rows, m.b.by = nil, nil
	clear(m.applied[:cap(m.applied)])
	m.node = nil
	n.spare.Store(m)
}

// keepRows is the drain buffer size, in rows, up to which a box keeps its
// memory whatever the open used.
const keepRows = 1024
