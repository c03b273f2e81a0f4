package index

import (
	"fmt"
	"runtime"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/stats"
	"nalquery/internal/xmlgen"
)

// TestIndexBytesPerPosting pins what a resident index costs: over bib.xml
// at size 5000 (the harness's paper_plans corpus) the index set keeps at
// most 24 bytes of live heap per posting — the rank itself, its copy in
// the value layer and that layer's offsets and slots — and a number of heap
// objects bounded by its paths, not by its distinct keys (a map from key
// to a slice of node pointers kept 73.5 bytes and an object per key).
func TestIndexBytesPerPosting(t *testing.T) {
	d := xmlgen.Bib(xmlgen.DefaultConfig(5000))
	st := stats.Analyze(d)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := BuildWith(d, st)
	runtime.GC()
	runtime.ReadMemStats(&after)
	var postings, distinct int
	for _, px := range x.Paths {
		postings += len(px.Ranks)
		distinct += max(len(px.vals.starts)-1, 0)
	}
	perPosting := float64(after.HeapAlloc-before.HeapAlloc) / float64(postings)
	objects := int(after.HeapObjects - before.HeapObjects)
	t.Logf("%d paths, %d postings, %d keys: %.1f resident bytes per posting, %d objects",
		len(x.Paths), postings, distinct, perPosting, objects)
	if perPosting > 24 {
		t.Errorf("bib.xml at size 5000 keeps %.1f index bytes per posting resident, want ≤ 24", perPosting)
	}
	// The DocIndexes, the path slab, the rank array, three slices per value
	// layer, and slack.
	if limit := 3*len(x.Paths) + 16; objects > limit {
		t.Errorf("the index set keeps %d heap objects for %d paths and %d keys, want ≤ %d",
			objects, len(x.Paths), distinct, limit)
	}
	runtime.KeepAlive(x)
}

// TestBuildAllocs bounds the allocations of an index build over bib.xml:
// the index's own share (BuildWith over measured statistics) is a few per
// path — the walk's rank windows and value-layer arrays — and none per node
// or per key, so it is the same at size 500 as at 5000; Build adds the
// statistics' value pass, a few more per path.
func TestBuildAllocs(t *testing.T) {
	for _, size := range []int{500, 5000} {
		d := xmlgen.Bib(xmlgen.DefaultConfig(size))
		st := stats.Analyze(d)
		build := testing.AllocsPerRun(3, func() { Build(d) })
		own := testing.AllocsPerRun(3, func() { BuildWith(d, st) })
		t.Logf("size %d: index.Build %.0f allocations, BuildWith %.0f", size, build, own)
		if build > 100 || own > 100 {
			t.Errorf("size %d: index.Build makes %.0f allocations and BuildWith %.0f, want ≤ 100 each",
				size, build, own)
		}
	}
}

// TestBuildAllocsFollowPathsNotValues pins "allocations per path, not per
// value": two documents of one shape, one whose leaves hold 10 distinct
// values and one whose leaves hold 10 000, cost index.Build — the walk, the
// statistics' value pass and the value layers — the same allocations.
func TestBuildAllocsFollowPathsNotValues(t *testing.T) {
	doc := func(distinct int) *dom.Document {
		b := dom.NewBuilder("shape.xml")
		b.Begin("r")
		for i := 0; i < 10_000; i++ {
			v := i % distinct
			b.Begin("e").Attrib("k", fmt.Sprintf("k%05d", v))
			b.Element("n", fmt.Sprintf("%05d", v))
			b.Element("s", fmt.Sprintf("s%05d", v))
			b.End()
		}
		b.End()
		return b.Done()
	}
	few, many := doc(10), doc(10_000)
	if a, b := Build(few).Stats.Path("/r/e/s").Distinct, Build(many).Stats.Path("/r/e/s").Distinct; a != 10 || b != 10_000 {
		t.Fatalf("distinct leaf values %d and %d, want 10 and 10 000", a, b)
	}
	a := testing.AllocsPerRun(3, func() { Build(few) })
	b := testing.AllocsPerRun(3, func() { Build(many) })
	if a != b {
		t.Errorf("index.Build made %.0f allocations over 10 distinct leaf values and %.0f over 10 000", a, b)
	}
}
