package nalquery

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nalquery/internal/stats"
	"nalquery/internal/store"
	"nalquery/internal/xmlgen"
)

// The statistics & index subsystem's differential gate and lifecycle tests:
// index-substituted plans must be byte-identical to their base plans on
// every paper query under both engines, measured statistics must flip the
// default plan choice, and the snapshot sidecar must invalidate exactly
// like the plan cache.

// TestDifferentialIndexedPlans: for every paper query, and for an ordered
// comparison against a key of two atoms, every "indexed *" plan alternative
// produces byte-identical output to its base plan — σ over Υ where the
// indexed plan scans the index — on both the slot engine and the reference
// evaluator. (The name keeps it inside the CI oracle sweep's TestDifferential
// pattern.)
func TestDifferentialIndexedPlans(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(60, 2)
	eng.LoadDBLPDocument(60)
	type statement struct {
		text string
		bind []RunOption
	}
	statements := map[string]statement{
		// ∃ atom: year > 1999 or year > 1995, i.e. year > 1995.
		"ordered two-atom key": {`declare variable $y external;
let $d := doc("bib.xml")
for $b in $d//book
where $b/@year > $y
return $b/title`, []RunOption{Bind("y", []any{1999, 1995})}},
	}
	for name, text := range PaperQueries {
		statements[name] = statement{text: text}
	}
	for name, stmt := range statements {
		q, err := eng.Compile(stmt.text)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		indexed := 0
		for _, p := range q.Plans() {
			base, ok := strings.CutPrefix(p.Name, "indexed ")
			if !ok {
				continue
			}
			indexed++
			want, _, err := execute(q, base, stmt.bind...)
			if err != nil {
				t.Fatalf("%s/%s: base: %v", name, base, err)
			}
			got, st, err := execute(q, p.Name, stmt.bind...)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, p.Name, err)
			}
			if got != want {
				t.Fatalf("%s: plan %q differs from %q\nbase:    %q\nindexed: %q",
					name, p.Name, base, want, got)
			}
			if st.IndexScans == 0 {
				t.Errorf("%s: plan %q executed no index scans", name, p.Name)
			}
			ref, _, err := execute(q, p.Name, append(stmt.bind, WithReferenceEngine())...)
			if err != nil {
				t.Fatalf("%s/%s (reference): %v", name, p.Name, err)
			}
			if ref != want {
				t.Fatalf("%s: plan %q reference output differs from base", name, p.Name)
			}
		}
		if indexed == 0 && stmt.bind != nil {
			t.Errorf("%s: no indexed alternative", name)
		}
		if indexed == 0 {
			t.Logf("%s: no indexed alternative (ok for shapes outside the substitution)", name)
		}
	}
}

// selectiveQuery scans books for one year — the selective predicate the
// value index answers with a probe.
const selectiveQuery = `
let $d := doc("bib.xml")
for $b in $d//book
where $b/@year = 1999
return $b/title`

// TestPlanFlipMeasuredStats pins the tentpole behavior: with the engine's
// measured statistics the default plan choice is an index-scan plan — and
// the flip pays off against its full-scan twin, measured by the engine's own
// counters.
func TestPlanFlipMeasuredStats(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(300, 2)

	measured, err := eng.Compile(selectiveQuery)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	mp, _ := measured.Plan("")
	if !strings.HasPrefix(mp.Name, "indexed ") {
		t.Fatalf("measured stats picked %q, want an indexed plan", mp.Name)
	}
	base := strings.TrimPrefix(mp.Name, "indexed ")

	// The flip is a win: the index plan touches a fraction of the tuples.
	outIdx, stIdx, err := execute(measured, mp.Name)
	if err != nil {
		t.Fatalf("indexed: %v", err)
	}
	outFull, stFull, err := execute(measured, base)
	if err != nil {
		t.Fatalf("full scan: %v", err)
	}
	if outIdx != outFull {
		t.Fatalf("plan outputs differ")
	}
	if stIdx.IndexScans == 0 || stFull.IndexScans != 0 {
		t.Fatalf("index-scan counters: indexed=%d full=%d", stIdx.IndexScans, stFull.IndexScans)
	}
	if stIdx.Tuples*4 >= stFull.Tuples {
		t.Fatalf("index plan processed %d tuples vs %d for the full scan — no win",
			stIdx.Tuples, stFull.Tuples)
	}
}

// TestStatsLifecycle: document statistics appear at load, survive unrelated
// loads, and are replaced — together with the plan choice they drive — when
// the document is re-uploaded.
func TestStatsLifecycle(t *testing.T) {
	eng := NewEngine()
	if _, ok := eng.DocumentStats("bib.xml"); ok {
		t.Fatalf("stats before any load")
	}
	runs0 := eng.AnalyzerRuns()

	eng.LoadXMLString("bib.xml", `<bib><book year="1999"><title>A</title></book></bib>`)
	ds, ok := eng.DocumentStats("bib.xml")
	if !ok || ds.Elements != 3 {
		t.Fatalf("stats after load: %+v ok=%v", ds, ok)
	}
	if eng.AnalyzerRuns() != runs0+1 {
		t.Fatalf("analyzer runs = %d, want %d", eng.AnalyzerRuns(), runs0+1)
	}

	// An unrelated load keeps bib.xml's sidecar (pointer-compare reconcile).
	eng.LoadXMLString("other.xml", `<o/>`)
	if eng.AnalyzerRuns() != runs0+2 {
		t.Fatalf("unrelated load reran the bib analyzer: %d runs", eng.AnalyzerRuns())
	}

	// Replacing the document replaces the measurement.
	eng.LoadXMLString("bib.xml",
		`<bib><book year="2001"><title>B</title></book><book year="2002"><title>C</title></book></bib>`)
	ds, _ = eng.DocumentStats("bib.xml")
	if ds.Elements != 5 {
		t.Fatalf("stats after replace: %+v", ds)
	}
	if eng.AnalyzerRuns() != runs0+3 {
		t.Fatalf("analyzer runs after replace = %d", eng.AnalyzerRuns())
	}
	found := false
	for _, p := range ds.Paths {
		if p.Path == "/bib/book/@year" {
			found = true
			if p.Count != 2 || p.Min != "2001" || p.Max != "2002" {
				t.Fatalf("replaced year stats: %+v", p)
			}
		}
	}
	if !found {
		t.Fatalf("no @year path in %+v", ds.Paths)
	}

	// Every way a document enters an engine analyzes it: the cost model
	// counts only documents with statistics, so after each load every
	// registered document must have them.
	dir, items := t.TempDir(), xmlgen.Items(xmlgen.DefaultConfig(20))
	nalb1, nalb2 := filepath.Join(dir, "v1.nalb"), filepath.Join(dir, "v2.nalb")
	if err := store.SaveFileStats(nalb1, items, nil); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveFileStats(nalb2, items, stats.Analyze(items)); err != nil {
		t.Fatal(err)
	}
	for _, load := range []struct {
		name, uri string
		do        func() error
	}{
		{"LoadXML", "x.xml", func() error { return eng.LoadXML("x.xml", strings.NewReader(`<x><y a="1"/></x>`)) }},
		{"LoadDocument", items.URI, func() error { eng.LoadDocument(items); return nil }},
		{"LoadStoreFile of a NALB1 file", "v1.xml", func() error { return eng.LoadStoreFile("v1.xml", nalb1) }},
		{"LoadStoreFile of a NALB2 file", "v2.xml", func() error { return eng.LoadStoreFile("v2.xml", nalb2) }},
		{"LoadUseCaseDocuments", "bids.xml", func() error { eng.LoadUseCaseDocuments(20, 2); return nil }},
		{"LoadDBLPDocument", "dblp.xml", func() error { eng.LoadDBLPDocument(20); return nil }},
	} {
		if err := load.do(); err != nil {
			t.Fatalf("%s: %v", load.name, err)
		}
		if eng.Document(load.uri) == nil {
			t.Fatalf("%s registered no %s", load.name, load.uri)
		}
		for _, uri := range eng.DocumentURIs() {
			if _, ok := eng.DocumentStats(uri); !ok {
				t.Errorf("after %s: no statistics for %s", load.name, uri)
			}
		}
	}
}

// TestConcurrentRunDuringReanalysis: 8 sessions run a query that exercises
// index scans while the engine concurrently replaces documents (triggering
// re-analysis). Compile-time snapshots keep every run consistent; the test
// is meaningful under -race.
func TestConcurrentRunDuringReanalysis(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(40, 2)
	q, err := eng.Compile(selectiveQuery)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want, _, err := execute(q, "")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, _, err := execute(q, "")
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("output drifted under concurrent reload")
					return
				}
			}
		}()
	}
	// Concurrent re-uploads force sidecar reconciliation on every mutate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			eng.LoadXMLString("churn.xml", fmt.Sprintf(`<c><v>%d</v></c>`, i))
			// Re-compiling against the fresh snapshot must also be safe.
			if _, err := eng.Compile(selectiveQuery); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestExplainCards: estimates and actuals line up operator-for-operator, and
// parameterized queries skip the actuals.
func TestExplainCards(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(50, 2)
	q, err := eng.Compile(selectiveQuery)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rows, err := q.ExplainCards("")
	if err != nil {
		t.Fatalf("cards: %v", err)
	}
	if len(rows) < 2 || rows[0].Depth != 0 {
		t.Fatalf("card rows: %+v", rows)
	}
	for _, r := range rows {
		if r.Actual < 0 {
			t.Fatalf("unparameterized query must measure actuals: %+v", r)
		}
		if r.Est <= 0 {
			t.Fatalf("estimate must be positive: %+v", r)
		}
	}
	if !strings.Contains(FormatCards(rows), "est=") {
		t.Fatalf("FormatCards output malformed")
	}

	pq, err := eng.Compile(`declare variable $y external;
let $d := doc("bib.xml") for $b in $d//book where $b/@year = $y return $b/title`)
	if err != nil {
		t.Fatalf("compile param query: %v", err)
	}
	prows, err := pq.ExplainCards("")
	if err != nil {
		t.Fatalf("param cards: %v", err)
	}
	for _, r := range prows {
		if r.Actual != -1 {
			t.Fatalf("parameterized query must not execute: %+v", r)
		}
	}
}
