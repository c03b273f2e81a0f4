package algebra

import (
	"slices"

	"nalquery/internal/value"
)

// rowSlab hands a producing iterator the value slices of its output rows,
// and a payload builder (e[a], ΠA) the flat backings of its payloads, cut
// from chunks it allocates a few rows at a time — one allocation per chunk
// instead of one per row. Every slice comes with cap == len, so a row can
// never be appended into its neighbour, and is never handed out twice, so
// rows stay immutable after emit. A consumer that retains a row keeps that
// row's chunk alive and nothing else: the allocation of at most slabMaxRows
// rows of one operator's width, or of slabMaxRows payloads of at most
// slabMaxRows values (docs/EXECUTION.md, "Row ownership and chunks").
type rowSlab struct {
	free []value.Value
	cut  int // values cut so far, at most slabMaxRows rows' worth
}

// slabMaxRows caps a chunk, bounding what one retained row can pin.
const slabMaxRows = 16

// take returns a zeroed slice of width values. fanout is the number of rows,
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
func (s *rowSlab) take(width, fanout int) []value.Value {
	if len(s.free) < width {
		n := min(max(fanout*width, s.cut+width), slabMaxRows*width)
		s.cut = min(s.cut+n, slabMaxRows*width)
		s.free = slices.Grow([]value.Value(nil), n)
		s.free = s.free[:cap(s.free)]
	}
	vals := s.free[:width:width]
	s.free = s.free[width:]
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
	return s.take(width, 0)
}

// extend takes a row that starts as a copy of r — the χ/Υ/Γ shape: the
// input's slots plus the new ones.
func (s *rowSlab) extend(lay *value.Layout, r value.Row, fanout int) value.Row {
	vals := s.take(lay.Width(), fanout)
	copy(vals, r.Vals)
	return value.Row{Lay: lay, Vals: vals}
}

// rowBuckets is a set of rows partitioned on a key: one flat array holding
// the groups back to back instead of one growing slice per group. Groups are
// numbered in order of first occurrence and keep their members in input
// order.
type rowBuckets struct {
	ids     map[value.HashKey]int32 // key → group
	gid     []int32                 // group of input row i
	starts  []int32                 // group g is grouped[starts[g]:starts[g+1]]
	grouped []value.Row
}

// bucketRows partitions rows on the key slots; hint pre-sizes the key table.
func bucketRows(rows []value.Row, by []int, hint int) rowBuckets {
	b := rowBuckets{ids: make(map[value.HashKey]int32, hint), gid: make([]int32, len(rows))}
	// Count members into starts[g+1], then turn the counts into offsets.
	b.starts = make([]int32, 1, hint+1)
	for i, r := range rows {
		k := value.KeyOfSlots(r.Vals, by)
		g, ok := b.ids[k]
		if !ok {
			g = int32(len(b.ids))
			b.ids[k] = g
			b.starts = append(b.starts, 0)
		}
		b.gid[i] = g
		b.starts[g+1]++
	}
	for g := 1; g < len(b.starts); g++ {
		b.starts[g] += b.starts[g-1]
	}
	b.grouped = make([]value.Row, len(rows))
	next := slices.Clone(b.starts[:len(b.starts)-1])
	for i, r := range rows {
		b.grouped[next[b.gid[i]]] = r
		next[b.gid[i]]++
	}
	return b
}

// n returns the number of groups.
func (b *rowBuckets) n() int { return len(b.starts) - 1 }

// group returns the members of group g. The slice cannot grow into the next
// group, so it can be handed out as a group payload (value.WrapRows).
func (b *rowBuckets) group(g int) []value.Row {
	return b.grouped[b.starts[g]:b.starts[g+1]:b.starts[g+1]]
}

// lookup returns the members of the group with key k, nil when there is none.
func (b *rowBuckets) lookup(k value.HashKey) []value.Row {
	if g, ok := b.ids[k]; ok {
		return b.group(int(g))
	}
	return nil
}
