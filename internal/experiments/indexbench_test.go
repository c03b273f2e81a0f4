package experiments

import (
	"os"
	"strconv"
	"testing"
	"time"

	nalquery "nalquery"
	"nalquery/internal/cli"
)

// indexQuerySelective is the selective scan the value index answers with a
// probe: books of a single year.
const indexQuerySelective = `
let $d := doc("bib.xml")
for $b in $d//book
where $b/@year = 1999
return $b/title`

// TestIndexSpeedupSelective pins the subsystem's payoff on the selective
// workload: the index-scan plan touches ≥10× fewer tuples than the full
// scan and is faster wall-clock (best of 3, with a conservative floor —
// the CI-noise-safe bound; at NALQUERY_INDEX_SPEEDUP_SIZE=100000 the
// measured speedup is ≥10×, see docs/PLANNING.md).
func TestIndexSpeedupSelective(t *testing.T) {
	size := 10000
	if s := os.Getenv("NALQUERY_INDEX_SPEEDUP_SIZE"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("NALQUERY_INDEX_SPEEDUP_SIZE: %v", err)
		}
		size = n
	}
	eng := nalquery.NewEngine()
	eng.LoadUseCaseDocuments(size, 2)
	q, err := eng.Compile(indexQuerySelective)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	best := func(plan string) (time.Duration, int64) {
		var elapsed time.Duration
		var tuples int64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			_, st, err := cli.RunPlan(q, plan)
			if err != nil {
				t.Fatalf("%s: %v", plan, err)
			}
			if d := time.Since(t0); elapsed == 0 || d < elapsed {
				elapsed = d
			}
			tuples = st.Tuples
		}
		return elapsed, tuples
	}
	full, fullTuples := best("nested")
	idx, idxTuples := best("indexed nested")
	t.Logf("size %d: full %v (%d tuples), indexed %v (%d tuples)",
		size, full, fullTuples, idx, idxTuples)
	if idxTuples*10 > fullTuples {
		t.Fatalf("tuple ratio %d/%d < 10x", fullTuples, idxTuples)
	}
	if idx*2 > full {
		t.Fatalf("index scan %v not even 2x faster than full scan %v", idx, full)
	}
}
