package nalquery

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"nalquery/internal/qgen"
)

// planShapeSum folds a compiled query's whole plan list — names in order,
// applied equivalences, the rendered operator trees and the exact bits of
// every estimated cost — into one FNV-1a sum.
func planShapeSum(q *Query) uint64 {
	h := fnv.New64a()
	for _, p := range q.Plans() {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%016x\x00", p.Name, strings.Join(p.Applied, ","),
			p.Explain(), math.Float64bits(p.EstimatedCost))
	}
	return h.Sum64()
}

// TestPlanShapesPinned pins what the compiler produces — every plan of every
// paper query (as written and wrapped in unordered(), to the same sum) and
// of a fixed-seed generated sample — to the sums read before the plan
// walkers became Op.MapChildren. A walker that misses an input, visits
// inputs in another order or stops descending where the hand-kept lists
// descended moves a sum.
func TestPlanShapesPinned(t *testing.T) {
	size, apb := qgen.DocSizes()
	eng := NewEngine()
	eng.LoadUseCaseDocuments(size, apb)
	eng.LoadDBLPDocument(size)

	ids := make([]string, 0, len(PaperQueries))
	for id := range PaperQueries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	paper := map[string]uint64{
		"q1/measured": 0x7974aabbc27810b0, "q1dblp/measured": 0x9b70331f37052b99,
		"q2/measured": 0x623acd372beae83, "q3/measured": 0xc187a28e0b07e8d4,
		"q4/measured": 0x5ce224346036c7cf, "q5/measured": 0x57a3533b16191117,
		"q6/measured": 0x3140bb0ea7777922,
	}
	for _, id := range ids {
		// unordered(Q) compiles to exactly Q's plans.
		for _, v := range []struct{ label, text string }{
			{"measured", PaperQueries[id]},
			{"unordered", "unordered(" + PaperQueries[id] + ")"},
		} {
			q, err := eng.Compile(v.text)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, v.label, err)
			}
			if got := planShapeSum(q); got != paper[id+"/measured"] {
				t.Errorf("%s/%s: plan list sums to %#x, pinned %#x", id, v.label, got, paper[id+"/measured"])
			}
		}
	}

	// The generated sample, in blocks of 100 so a moved sum names its
	// neighbourhood. Rejected texts fold in as such: which texts compile is
	// pinned too.
	const seed, perBlock = 20240808, 100
	blocks := []uint64{0xfb7888ac8f6078d5, 0x790b2581b142da28, 0x19dbe64972465295,
		0x1c74d5827cffd448, 0x18c263709900c710, 0xd81eacd6b330392e}
	g := qgen.New(qgen.Config{Seed: seed, Externals: true})
	compiled, shapes := 0, map[string]int{}
	for b, want := range blocks {
		h := fnv.New64a()
		for i := 0; i < perBlock; i++ {
			text := g.Query().Text
			q, err := eng.Compile(text)
			if err != nil {
				fmt.Fprintf(h, "rejected\x00")
				continue
			}
			compiled++
			for _, kw := range []string{"order by", "some $", "every $"} {
				if strings.Contains(text, kw) {
					shapes[kw]++
				}
			}
			if n := strings.Count(text, "for $"); n >= 2 {
				shapes["nested"]++
				if n >= 3 {
					shapes["three-level"]++
				}
			}
			fmt.Fprintf(h, "%016x\x00", planShapeSum(q))
		}
		if got := h.Sum64(); got != want {
			t.Errorf("seed=%d queries %d–%d: plan lists sum to %#x, pinned %#x",
				seed, b*perBlock, (b+1)*perBlock-1, got, want)
		}
	}
	if compiled < 500 {
		t.Errorf("only %d generated queries compiled, want at least 500", compiled)
	}
	for kw, atLeast := range map[string]int{"order by": 20, "some $": 20, "every $": 20, "nested": 200, "three-level": 5} {
		if shapes[kw] < atLeast {
			t.Errorf("the sample holds %d compiled %q queries, want at least %d", shapes[kw], kw, atLeast)
		}
	}
}
