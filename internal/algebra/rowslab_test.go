package algebra

import (
	"math/rand"
	"slices"
	"testing"

	"nalquery/internal/race"
	"nalquery/internal/value"
)

// TestRowSlabRowsAreSealed: a slice taken from a slab cannot be appended
// into its neighbour (cap == len), is zeroed, never overlaps another one, and
// a chunk is sized by the stream: the size class of min(max(fanout, rows so
// far with this one), slabMaxRows) rows, so the first holds max(fanout, 1)
// and none more than slabMaxRows occupy — the retention bound of a retained
// row.
func TestRowSlabRowsAreSealed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, width := range []int{0, 1, 3, 7} {
		var s rowSlab
		var taken [][]value.Value
		for i := 0; i < 1000; i++ {
			fanout := []int{0, 1, 2, 5, slabMaxRows, 10 * slabMaxRows}[rng.Intn(6)]
			before := len(s.free)
			vals := s.take(width, fanout)
			if len(vals) != width || cap(vals) != width {
				t.Fatalf("width %d: take gave len %d cap %d", width, len(vals), cap(vals))
			}
			if before < width { // a new chunk was cut
				rows := len(s.free)/width + 1
				want := min(max(fanout, i+1), slabMaxRows)
				if class := sizeClass(want*width) / width; rows != class || rows < want {
					t.Fatalf("width %d: chunk cut at row %d for a fan-out of %d holds %d rows, want the %d that %d occupy", width, i, fanout, rows, class, want)
				}
			}
			for j, v := range vals {
				if v != nil {
					t.Fatalf("width %d: row %d slot %d is not zeroed", width, i, j)
				}
				vals[j] = value.Int(int64(i))
			}
			// Appending must reallocate, not run into the next row (which
			// the zero check above would then find written).
			_ = append(vals, value.Int(-1))
			taken = append(taken, vals)
		}
		for i, vals := range taken {
			for _, v := range vals {
				if v != value.Int(int64(i)) {
					t.Fatalf("width %d: row %d was overwritten", width, i)
				}
			}
		}
	}
}

// TestRowSlabDoublesFromOneRow: without a known fan-out the chunks double
// from one row, so n rows never draw more than 2n rows of space — and three
// rows draw exactly three.
func TestRowSlabDoublesFromOneRow(t *testing.T) {
	for _, n := range []int{1, 3, 7, 100, 1000} {
		var s rowSlab
		cut := 0
		for i := 0; i < n; i++ {
			before := len(s.free)
			s.take(2, 0)
			if before < 2 {
				cut += len(s.free)/2 + 1
			}
		}
		if cut > 2*n || (n == 3 && cut != 3) {
			t.Errorf("%d rows drew chunks totalling %d rows", n, cut)
		}
	}
}

// TestRowSlabLongStreamStaysAtTheCap: a long stream of unknown fan-out cuts
// 1, 2, 4 and 8 rows and then full chunks to its end — the stream counter
// must not wrap and restart the doubling (it once did after 63 chunks:
// 16 000 rows cut 1 053 chunks, 64 of them undersized).
func TestRowSlabLongStreamStaysAtTheCap(t *testing.T) {
	const n = 16000
	var s rowSlab
	chunks, small := 0, 0
	for i := 0; i < n; i++ {
		before := len(s.free)
		s.take(2, 0)
		if before < 2 {
			chunks++
			if i >= 15 && len(s.free)/2+1 < slabMaxRows {
				small++
			}
		}
	}
	if want := 4 + (n-15+slabMaxRows-1)/slabMaxRows; chunks != want || small != 0 {
		t.Errorf("%d rows cut %d chunks (%d undersized after warm-up), want %d", n, chunks, small, want)
	}
}

// TestRowSlabPayloadWidthsVary: a payload builder takes backings of whatever
// width its payload has. Narrow ones are cut from the stream's chunks; one
// wider than slabMaxRows values is allocated on its own — two in a row do not
// size a chunk after each other — and leaves the narrow stream as it was.
func TestRowSlabPayloadWidthsVary(t *testing.T) {
	var s rowSlab
	for i := 0; i < 40; i++ {
		s.payload(1)
	}
	free, cut := len(s.free), s.cut
	for _, w := range []int{1000, 1000, slabMaxRows + 1} {
		vals := s.payload(w)
		if len(vals) != w || cap(vals) != w {
			t.Fatalf("a %d-value payload has len %d cap %d", w, len(vals), cap(vals))
		}
		if len(s.free) != free || s.cut != cut {
			t.Fatalf("a %d-value payload was cut from the stream: %d values left of %d, %d counted of %d", w, len(s.free), free, s.cut, cut)
		}
	}
	if vals := s.payload(slabMaxRows); len(vals) != slabMaxRows || s.cut == cut && len(s.free) == free {
		t.Errorf("a %d-value payload was not cut from the stream", slabMaxRows)
	}
}

// sizeClass is how many values the allocation of n values holds.
func sizeClass(n int) int { return cap(slices.Grow([]value.Value(nil), n)) }

// TestUnnestMapChunksFollowTheStream: Υ with a fan-out of two per input row
// cuts its rows from chunks that grow with the whole stream, not one chunk
// per input row: over n input rows, at most 2n/16 chunks plus a handful
// while they double and per open — each twice in a race-detector build,
// which does not fold slices.Grow's make.
func TestUnnestMapChunksFollowTheStream(t *testing.T) {
	const n = 1000
	seq := make(value.Seq, n)
	for i := range seq {
		seq[i] = value.Int(int64(i % 200))
	}
	in := UnnestMap{In: Singleton{}, Attr: "x", E: ConstVal{V: seq}}
	two := UnnestMap{In: in, Attr: "y", E: ConstVal{V: value.Seq{value.Int(1), value.Int(2)}}}
	allocs := func(op Op) float64 {
		root := Resolve(op)
		return testing.AllocsPerRun(5, func() {
			it := root.open(NewCtx(nil), nil)
			for _, ok := it.Next(); ok; _, ok = it.Next() {
			}
			it.Close()
		})
	}
	want := 2*n/slabMaxRows + 5
	if race.Enabled {
		want *= 2
	}
	if chunks := allocs(two) - allocs(in); chunks > float64(want) {
		t.Errorf("Υ of fan-out 2 over %d rows made %.0f allocations, want ≤ %d", n, chunks, want)
	}
}

// TestBucketRowsMatchesMapOfSlices: group order is first occurrence, member
// order is input order, gid names each row's group — against the
// map-of-slices grouping bucketRows replaced.
func TestBucketRowsMatchesMapOfSlices(t *testing.T) {
	lay := value.NewLayout("k", "j", "v")
	rng := rand.New(rand.NewSource(11))
	keyVals := []value.Value{value.Int(1), value.Str("1.0"), value.Str("a"), value.Str("b"), value.Null{}, nil,
		value.Float(2), value.Str(" 2 "), value.Bool(true)}
	for _, tc := range []struct {
		name     string
		n, kinds int
		by       []int
	}{
		{"empty", 0, 1, []int{0}},
		{"single group", 50, 1, []int{0}},
		{"random", 500, len(keyVals), []int{0}},
		{"two columns", 500, 4, []int{0, 1}},
		{"no key column", 20, 3, nil},
		{"all distinct", 200, 0, []int{2}},
	} {
		rows := make([]value.Row, tc.n)
		for i := range rows {
			r := value.NewRow(lay)
			if tc.kinds > 0 {
				r.Vals[0] = keyVals[rng.Intn(tc.kinds)]
				r.Vals[1] = keyVals[rng.Intn(tc.kinds)]
			}
			r.Vals[2] = value.Int(int64(i))
			rows[i] = r
		}
		var order []value.HashKey
		ref := map[value.HashKey][]value.Row{}
		for _, r := range rows {
			k := value.KeyOfSlots(r.Vals, tc.by)
			if _, ok := ref[k]; !ok {
				order = append(order, k)
			}
			ref[k] = append(ref[k], r)
		}

		b := bucketRows(rows, tc.by, rng.Intn(tc.n+1))
		if b.n() != len(order) || len(b.gid) != len(rows) || len(b.grouped) != len(rows) {
			t.Fatalf("%s: %d groups (want %d), %d gids, %d grouped rows", tc.name, b.n(), len(order), len(b.gid), len(b.grouped))
		}
		for g, k := range order {
			grp := b.group(g)
			if len(grp) != len(ref[k]) || cap(grp) != len(grp) {
				t.Fatalf("%s: group %d has %d members (cap %d), want %d", tc.name, g, len(grp), cap(grp), len(ref[k]))
			}
			for i := range grp {
				if &grp[i].Vals[0] != &ref[k][i].Vals[0] {
					t.Fatalf("%s: group %d member %d is not input row %v", tc.name, g, i, ref[k][i].Vals[2])
				}
			}
			if got := b.lookup(k); len(got) != len(grp) || &got[0] != &grp[0] {
				t.Fatalf("%s: lookup of group %d's key finds another group", tc.name, g)
			}
		}
		for i, r := range rows {
			if order[b.gid[i]] != value.KeyOfSlots(r.Vals, tc.by) {
				t.Fatalf("%s: gid[%d] = %d names a group with another key", tc.name, i, b.gid[i])
			}
		}
		if b.lookup(value.KeyOf(value.Str("absent"))) != nil {
			t.Fatalf("%s: lookup of an absent key found rows", tc.name)
		}
	}
}
