package nalquery

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
)

// runEngine loads every document the paper queries reference at the given
// size.
func runEngine(size int) *Engine {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(size, 2)
	eng.LoadDBLPDocument(size)
	return eng
}

// collectXML consumes a Results session item by item and concatenates the
// per-item serializations.
func collectXML(t *testing.T, res *Results) string {
	t.Helper()
	var sb strings.Builder
	for {
		item, ok := res.Next()
		if !ok {
			break
		}
		sb.WriteString(item.XML())
	}
	if err := res.Err(); err != nil {
		t.Fatalf("Err after exhaustion: %v", err)
	}
	if err := res.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return sb.String()
}

// TestResultsTypedMatchesWriteXML: for every paper query and every plan
// alternative, item-by-item serialization of the typed result stream equals
// the direct WriteXML output byte for byte — on both the slot engine and
// the reference evaluator.
func TestResultsTypedMatchesWriteXML(t *testing.T) {
	eng := runEngine(30)
	for id, text := range PaperQueries {
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, p := range q.Plans() {
			want, _, err := execute(q, p.Name)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, p.Name, err)
			}
			res, err := q.Run(context.Background(), WithPlan(p.Name))
			if err != nil {
				t.Fatalf("%s/%s: Run: %v", id, p.Name, err)
			}
			if got := collectXML(t, res); got != want {
				t.Errorf("%s/%s: typed item serialization differs from WriteXML output", id, p.Name)
			}
			ref, err := q.Run(context.Background(), WithPlan(p.Name), WithReferenceEngine())
			if err != nil {
				t.Fatalf("%s/%s: Run(reference): %v", id, p.Name, err)
			}
			if got := collectXML(t, ref); got != want {
				t.Errorf("%s/%s: reference-engine item stream differs from WriteXML output", id, p.Name)
			}
		}
	}
}

// TestResultsWriteXMLStats: direct serialization produces the same bytes
// into an in-memory builder and through a general io.Writer (the buffered
// path files take), and the WithStats target receives the counters
// Results.Stats reports.
func TestResultsWriteXMLStats(t *testing.T) {
	eng := runEngine(30)
	q, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range q.Plans() {
		want, wantStats, err := execute(q, p.Name)
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		res, err := q.Run(context.Background(), WithPlan(p.Name), WithStats(&st))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteXML(struct{ io.Writer }{&buf}); err != nil {
			t.Fatalf("plan %q: WriteXML: %v", p.Name, err)
		}
		if buf.String() != want {
			t.Errorf("plan %q: bytes streamed to a writer differ from the builder's", p.Name)
		}
		if st != wantStats || st.DocAccesses == 0 {
			t.Errorf("plan %q: WithStats got %+v, Results.Stats reported %+v", p.Name, st, wantStats)
		}
	}
}

// TestConcurrentRun: one compiled Query serves many simultaneous Run
// sessions — half consuming typed items, half serializing — and every
// session produces the reference output. Run under -race this pins the
// immutability of the compile-time snapshot.
func TestConcurrentRun(t *testing.T) {
	eng := runEngine(40)
	q, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := execute(q, "")
	if err != nil {
		t.Fatal(err)
	}
	// Loading more documents after Compile must not affect running queries:
	// the engine map mutates, the query's snapshot does not.
	if err := eng.LoadXMLString("late.xml", "<late/>"); err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := q.Run(context.Background())
			if err != nil {
				errs <- err
				return
			}
			var sb strings.Builder
			if g%2 == 0 {
				for item := range res.Seq() {
					sb.WriteString(item.XML())
				}
				if err := res.Err(); err != nil {
					errs <- err
					return
				}
				res.Close()
			} else {
				if err := res.WriteXML(&sb); err != nil {
					errs <- err
					return
				}
			}
			if sb.String() != want {
				errs <- errors.New("concurrent run produced divergent output")
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunCancellationMidStream: cancelling the context after consuming a
// few items ends the stream with the context's error, without the pipeline
// having produced anywhere near the full run's tuples.
func TestRunCancellationMidStream(t *testing.T) {
	eng := runEngine(2000)
	// A fully pipelined plan (scan → Ξ): tuples are produced only as items
	// are pulled, so the cancellation point is reached almost immediately.
	q, err := eng.Compile(`
let $d1 := doc("bib.xml")
for $b1 in $d1//book
return <t>{ $b1/title }</t>`)
	if err != nil {
		t.Fatal(err)
	}
	var full Stats
	if _, full, err = execute(q, ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var st Stats
	res, err := q.Run(ctx, WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	consumed := 0
	for item, ok := res.Next(); ok; item, ok = res.Next() {
		_ = item
		consumed++
		if consumed == 5 {
			cancel()
		}
	}
	if err := res.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	if st.Tuples >= full.Tuples/2 {
		t.Errorf("cancelled run produced %d tuples, full run %d — pipeline drained to completion", st.Tuples, full.Tuples)
	}
}

// TestRunCancellationInsideEngine: with a context cancelled before
// consumption, the engine's own checkpoints — the scan producer and the
// pipeline-breaker drains — terminate a WriteXML drive early, on both a
// pipelined and a breaker-heavy (grouping) plan.
func TestRunCancellationInsideEngine(t *testing.T) {
	eng := runEngine(2000)
	q, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []string{"grouping", ""} {
		var full Stats
		if _, full, err = execute(q, plan); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var st Stats
		res, err := q.Run(ctx, WithPlan(plan), WithStats(&st))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := res.WriteXML(&sb); !errors.Is(err, context.Canceled) {
			t.Fatalf("plan %q: WriteXML error = %v, want context.Canceled", plan, err)
		}
		if st.Tuples >= full.Tuples/2 {
			t.Errorf("plan %q: cancelled run produced %d tuples of %d — engine did not stop early", plan, st.Tuples, full.Tuples)
		}
	}
}

// TestResultsEarlyClose: closing a session mid-stream releases it cleanly —
// no error, no further items, idempotent Close — and a later session of the
// same query is unaffected.
func TestResultsEarlyClose(t *testing.T) {
	eng := runEngine(40)
	q, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := res.Next(); !ok {
			t.Fatal("stream ended before two items")
		}
	}
	if err := res.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, ok := res.Next(); ok {
		t.Error("Next returned an item after Close")
	}
	if err := res.Err(); err != nil {
		t.Errorf("Err after early Close: %v", err)
	}
	if err := res.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	want, _, err := execute(q, "")
	if err != nil {
		t.Fatal(err)
	}
	again, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := collectXML(t, again); got != want {
		t.Error("run after an early-closed session diverged")
	}
}

// TestRunSeqEarlyBreak: breaking out of the range-over-func adaptor leaves
// the session consistent.
func TestRunSeqEarlyBreak(t *testing.T) {
	eng := runEngine(40)
	q, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range res.Seq() {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("consumed %d items, want 3", n)
	}
	if err := res.Close(); err != nil {
		t.Fatalf("Close after break: %v", err)
	}
}

// TestTypedItems: the typed views expose atomic values without
// serialization.
func TestTypedItems(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadXMLString("bib.xml", `<bib><book><title>A</title></book><book><title>B</title></book></bib>`); err != nil {
		t.Fatal(err)
	}
	q, err := eng.Compile(`let $d1 := doc("bib.xml") return <n>{ count($d1//book) }</n>`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var sawCount bool
	for item := range res.Seq() {
		if !item.IsValue() {
			if item.Markup() == "" {
				t.Error("markup item with empty fragment")
			}
			continue
		}
		v := item.Value()
		if v.Kind() == KindInt {
			if n, ok := v.Int(); !ok || n != 2 {
				t.Errorf("Int() = %d,%v, want 2,true", n, ok)
			}
			if f, ok := v.Float(); !ok || f != 2 {
				t.Errorf("Float() = %v,%v, want 2,true", f, ok)
			}
			if v.String() != "2" {
				t.Errorf("String() = %q, want \"2\"", v.String())
			}
			sawCount = true
		}
	}
	if !sawCount {
		t.Error("no integer item in the result stream")
	}

	// Node items: names and string values are readable without serializing.
	q2, err := eng.Compile(`let $d1 := doc("bib.xml") for $t1 in $d1//book/title return <t>{ $t1 }</t>`)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := q2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Close()
	var titles []string
	for item := range res2.Seq() {
		if !item.IsValue() {
			continue
		}
		for _, m := range item.Value().Items() {
			if m.Kind() == KindNode && m.NodeName() == "title" {
				titles = append(titles, m.String())
			}
		}
	}
	if strings.Join(titles, ",") != "A,B" {
		t.Errorf("title string values = %v, want [A B]", titles)
	}

	// An expression selecting nothing views as the empty kind, not as a
	// zero-length sequence.
	q3, err := eng.Compile(`let $d1 := doc("bib.xml") for $b1 in $d1//book return <t>{ $b1/missing }</t>`)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := q3.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer res3.Close()
	for item := range res3.Seq() {
		if item.IsValue() && item.Value().Kind() != KindEmpty {
			t.Errorf("empty path result Kind = %v, want KindEmpty", item.Value().Kind())
		}
	}
}

// failingStringWriter errors after a few bytes on both entry points. It
// implements WriteString, pinning that WriteXML still buffers it (the
// engine's writes are fire-and-forget; handing such a writer to the engine
// unbuffered would silently drop the error).
type failingStringWriter struct{ n int }

func (f *failingStringWriter) Write(p []byte) (int, error) { return f.WriteString(string(p)) }

func (f *failingStringWriter) WriteString(s string) (int, error) {
	f.n += len(s)
	if f.n > 8 {
		return 0, errors.New("disk full")
	}
	return len(s), nil
}

// TestWriteXMLWriterError: write failures surface from WriteXML even for
// writers that themselves implement WriteString (e.g. *os.File).
func TestWriteXMLWriterError(t *testing.T) {
	eng := runEngine(40)
	q, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteXML(&failingStringWriter{}); err == nil {
		t.Error("no error from a failing WriteString writer")
	}
}

// TestPlanErrors: the typed error surface of plan selection and parsing.
func TestPlanErrors(t *testing.T) {
	var empty Query
	if _, err := empty.Plan(""); !errors.Is(err, ErrNoPlan) {
		t.Errorf("Plan on planless query = %v, want ErrNoPlan", err)
	}

	eng := runEngine(10)
	q, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	_, err = q.Plan("no-such-plan")
	if !errors.Is(err, ErrUnknownPlan) {
		t.Errorf("unknown plan error %v does not match ErrUnknownPlan", err)
	}
	var upe *UnknownPlanError
	if !errors.As(err, &upe) {
		t.Fatalf("unknown plan error %T is not *UnknownPlanError", err)
	}
	if upe.Name != "no-such-plan" || len(upe.Have) == 0 {
		t.Errorf("UnknownPlanError = %+v, want requested name and alternatives", upe)
	}
	if _, err := q.Run(context.Background(), WithPlan("no-such-plan")); !errors.Is(err, ErrUnknownPlan) {
		t.Errorf("Run with unknown plan = %v, want ErrUnknownPlan", err)
	}

	_, err = eng.Compile("let $x := ")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("syntax error %v (%T) is not *ParseError", err, err)
	}
	if pe.Line < 1 || pe.Msg == "" {
		t.Errorf("ParseError = %+v, want position and message", pe)
	}
}
