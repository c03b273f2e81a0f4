package nalquery

import (
	"context"
	"hash/fnv"
	"io"
	"runtime"
	"testing"

	"nalquery/internal/race"
)

// TestPaperPlanAllocBudget is the allocation gate of the execution path: the
// cost-chosen plan of each paper query, prepared once, run and serialized,
// at size 400. Each ceiling is what the run allocates plus a slack, so that
// going back fails. The slacks date from reading a node's text in place
// (value.NodeText) where string(), distinct-values and data() boxed it in a
// Str: those ceilings sat halfway between the counts before and after it
// (q1, q1dblp, q2, q5 and q6 allocated 997, 638, 2 397, 664 and 195 before,
// 597, 444, 1 997, 264 and 125 after), and q3's and q4's, which box no text,
// at their readings. When χ runs began to write their slots in place instead
// of copying each row one slot wider, the ceilings came down with the
// counts, each keeping the slack it carried: q1, q1dblp, q2, q3, q4, q5 and
// q6 allocated 589, 408, 1 959, 74, 153, 241 and 103 before that change and
// 534, 390, 1 822, 74, 153, 160 and 66 after.
//
// Each plan is measured again under a budget that never trips: accounting
// charges counters, so a live budget costs the allocation of the budget
// itself and nothing per row — within two allocations of the unbudgeted
// run (the pin the retired `resource` bench rows held: 7 277 vs 7 278).
//
// A race-detector build allocates every row chunk twice (it does not fold
// slices.Grow's make), so there the ceilings, which count chunks, are not
// checked; the budget check, equal on both sides whatever a chunk costs, is.
func TestPaperPlanAllocBudget(t *testing.T) {
	eng := runEngine(400)
	for id, ceiling := range map[string]float64{
		"q1": 742, "q1dblp": 523, "q2": 2060, "q3": 82, "q4": 162, "q5": 383, "q6": 123,
	} {
		p, err := eng.Prepare(PaperQueries[id])
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		allocs := func(opts ...RunOption) float64 {
			return testing.AllocsPerRun(3, func() {
				res, err := p.Run(context.Background(), opts...)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				defer res.Close()
				if err := res.WriteXML(io.Discard); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
			})
		}
		got := allocs()
		if got > ceiling && !race.Enabled {
			t.Errorf("%s: %.0f allocations per run, ceiling %.0f", id, got, ceiling)
		}
		if budgeted := allocs(WithMaxMemory(1 << 30)); budgeted > got+2 {
			t.Errorf("%s: %.0f allocations per run under a budget, %.0f without", id, budgeted, got)
		}
	}
}

// TestPaperPlanBytesBudget is the bytes gate of the same path: the bytes the
// cost-chosen q4 plan, prepared once, allocates per run and serialization at
// size 400 on its second and later runs, when its pipeline breakers fill the
// drain buffers, key tables and row arrays an earlier run gave back (a
// node's first two opens park nothing, so from its fourth open on). Ten such
// runs allocated 332 508 bytes each before breakers recycled their working
// memory and 154 775 after; the ceiling sits halfway, so that going back
// fails. A race-detector build allocates differently and is not held to it.
func TestPaperPlanBytesBudget(t *testing.T) {
	const ceiling, runs = 243640, 10
	p, err := runEngine(400).Prepare(PaperQueries["q4"])
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		if err := res.WriteXML(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	run()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > ceiling && !race.Enabled {
		t.Errorf("q4: %d bytes per run, ceiling %d", got, ceiling)
	}
}

// TestBudgetChargesIndependentOfAllocation pins what a run charges its
// budget — bytes, tuples, and the sequence of trip points it consults — per
// paper query and plan, to the values read before rows came from chunks and
// groups from flat arrays. How the engine allocates is not what it accounts:
// a charge is per row and per slot, wherever the slots live.
//
// The nested rows were re-read when nested sub-plans moved from the
// definitional evaluator onto the row engine: the inner scans charge the same
// tuples at the same points, but as slot rows (16 bytes a slot) where they
// were map tuples (48 bytes an entry), so the bytes fall; and in q1/q1dblp the
// nested block's ΠA payload is now the flat backing the engine charges under
// "group" wherever it builds one — one more consultation per outer tuple.
//
// The label sums of the ⋉, ▷ and ⟕ rows were re-read when joins began to
// build their right input on the first left row instead of when they open:
// the same labels are consulted as often and charge the same bytes and
// tuples, but the first left row's scan now comes before the build side's
// charges. (No row here has an empty probe side, so no count moved.)
func TestBudgetChargesIndependentOfAllocation(t *testing.T) {
	eng := runEngine(40)
	for _, want := range []struct {
		id, plan      string
		bytes, tuples int64
		consulted     int
		labels        uint32 // FNV-1a over the consulted labels, in order
	}{
		{"q1", "nested", 136240, 1640, 1880, 0x25306a95},
		{"q1", "outer join", 28720, 200, 560, 0x780094f5},
		{"q1", "grouping", 22320, 120, 440, 0x8b72434d},
		{"q1", "group Ξ", 22320, 120, 440, 0xd9f7796d},
		{"q1", "indexed outer join", 28720, 200, 560, 0x780094f5},
		{"q1", "indexed grouping", 22320, 120, 440, 0x8b72434d},
		{"q1", "indexed group Ξ", 22320, 120, 440, 0xd9f7796d},
		{"q1dblp", "nested", 24938, 285, 399, 0x75989b79},
		{"q1dblp", "outer join", 9770, 69, 219, 0x1658ea9c},
		{"q1dblp", "indexed outer join", 9770, 69, 219, 0x1658ea9c},
		{"q2", "nested", 292392, 3566, 3766, 0x25f7f11b},
		{"q2", "outer join", 38280, 338, 578, 0x9c4fc51d},
		{"q2", "grouping", 31880, 258, 458, 0xbc9a6da5},
		{"q2", "indexed outer join", 38280, 338, 578, 0x9c4fc51d},
		{"q2", "indexed grouping", 31880, 258, 458, 0xbc9a6da5},
		{"q3", "nested", 132235, 1640, 1685, 0xb48c227f},
		{"q3", "semijoin", 10635, 120, 205, 0x72574157},
		{"q3", "indexed nested", 132235, 1640, 1685, 0xb48c227f},
		{"q3", "indexed semijoin", 10635, 120, 205, 0x72574157},
		{"q4", "nested", 881460, 9720, 9732, 0x8926e9c1},
		{"q4", "semijoin", 22132, 242, 334, 0x72d175ed},
		{"q4", "grouping", 18740, 200, 212, 0x46bd615d},
		{"q4", "indexed nested", 881460, 9720, 9732, 0x8926e9c1},
		{"q4", "indexed semijoin", 22132, 242, 334, 0x72d175ed},
		{"q4", "indexed grouping", 18740, 200, 212, 0x46bd615d},
		{"q5", "nested", 363082, 4840, 4918, 0x7593d6f5},
		{"q5", "anti-semijoin", 15178, 176, 294, 0x554d4eb1},
		{"q5", "grouping", 18122, 200, 278, 0xd6c8a625},
		{"q5", "indexed anti-semijoin", 15178, 176, 294, 0x554d4eb1},
		{"q5", "indexed grouping", 18122, 200, 278, 0xd6c8a625},
		{"q6", "nested", 26423, 328, 337, 0x611a705b},
		{"q6", "outer join", 8503, 96, 113, 0x9d50fc1b},
		{"q6", "grouping", 7223, 80, 89, 0xabe947f3},
		{"q6", "indexed outer join", 8503, 96, 113, 0x9d50fc1b},
		{"q6", "indexed grouping", 7223, 80, 89, 0xabe947f3},
	} {
		q, err := eng.Compile(PaperQueries[want.id])
		if err != nil {
			t.Fatalf("%s: %v", want.id, err)
		}
		labels, consulted := fnv.New32a(), 0
		hook := func(point string) bool {
			labels.Write([]byte(point))
			labels.Write([]byte{0})
			consulted++
			return false
		}
		var st Stats
		if err := runToDiscard(t, q, WithPlan(want.plan), WithStats(&st), withFaultHook(hook)); err != nil {
			t.Fatalf("%s/%s: %v", want.id, want.plan, err)
		}
		if st.BudgetBytes != want.bytes || st.BudgetTuples != want.tuples ||
			consulted != want.consulted || labels.Sum32() != want.labels {
			t.Errorf("%s/%s: charged %d bytes, %d tuples over %d consultations (labels %#x); pinned %d, %d, %d (%#x)",
				want.id, want.plan, st.BudgetBytes, st.BudgetTuples, consulted, labels.Sum32(),
				want.bytes, want.tuples, want.consulted, want.labels)
		}
	}
}
