package algebra

import (
	"math/rand"
	"testing"

	"nalquery/internal/value"
)

// TestRowSlabRowsAreSealed: a slice taken from a slab cannot be appended
// into its neighbour (cap == len), is zeroed, never overlaps another one, and
// no chunk exceeds the cap — the retention bound of a retained row.
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
				if rows > slabMaxRows {
					t.Fatalf("width %d fanout %d: chunk of %d rows exceeds the cap %d", width, fanout, rows, slabMaxRows)
				}
				if fanout > 1 && rows != min(fanout, slabMaxRows) {
					t.Fatalf("width %d: chunk for a known fan-out of %d holds %d rows", width, fanout, rows)
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
			k := rowKey(r, tc.by)
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
			if order[b.gid[i]] != rowKey(r, tc.by) {
				t.Fatalf("%s: gid[%d] = %d names a group with another key", tc.name, i, b.gid[i])
			}
		}
		if b.lookup(value.KeyOf(value.Str("absent"))) != nil {
			t.Fatalf("%s: lookup of an absent key found rows", tc.name)
		}
	}
}
