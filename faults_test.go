package nalquery

// Fault-injection sweep over the resource-governance boundaries: for every
// paper query, every plan alternative and both engines, force a budget trip
// at each operator boundary the run actually crosses and assert the typed
// failure contract — a *ResourceError (never a raw panic, never a silent
// partial result), no goroutine leaks, and an engine that keeps answering
// the same query correctly afterwards. CI runs this file under -race.

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// pointRecorder is the discovery hook: it records every trip point the run
// consults (in first-consultation order, with per-point counts) and never
// trips.
type pointRecorder struct {
	order  []string
	counts map[string]int
}

func (r *pointRecorder) hook(point string) bool {
	if r.counts == nil {
		r.counts = map[string]int{}
	}
	if r.counts[point] == 0 {
		r.order = append(r.order, point)
	}
	r.counts[point]++
	return false
}

// tripAt forces a budget trip on the n-th consultation of one point,
// standing in for an allocation failure at exactly that boundary.
type tripAt struct {
	point string
	n     int
	seen  int
}

func (h *tripAt) hook(point string) bool {
	if point != h.point {
		return false
	}
	h.seen++
	return h.seen == h.n
}

// engineOpts returns the Run options selecting plan + engine.
func engineOpts(plan string, reference bool) []RunOption {
	opts := []RunOption{WithPlan(plan)}
	if reference {
		opts = append(opts, WithReferenceEngine())
	}
	return opts
}

// runToDiscard executes one full run through the WriteXML path and returns
// its error.
func runToDiscard(t *testing.T, q *Query, opts ...RunOption) error {
	t.Helper()
	res, err := q.Run(context.Background(), opts...)
	if err != nil {
		return err
	}
	defer res.Close()
	return res.WriteXML(io.Discard)
}

// requireResourceError asserts err is the typed *ResourceError tripped at
// the wanted operator boundary.
func requireResourceError(t *testing.T, err error, wantOp string) *ResourceError {
	t.Helper()
	if err == nil {
		t.Fatal("expected a resource error, got nil")
	}
	if !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("error %v does not match ErrResourceExhausted", err)
	}
	if errors.Is(err, ErrInternal) {
		t.Fatalf("resource trip leaked through as ErrInternal: %v", err)
	}
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not *ResourceError", err)
	}
	if wantOp != "" && re.Op != wantOp {
		t.Fatalf("ResourceError.Op = %q, want %q", re.Op, wantOp)
	}
	return re
}

// waitGoroutines fails if the goroutine count does not settle back to the
// baseline: a trip mid-pipeline must unwind everything it started.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFaultSweepAllPaperPlans is the acceptance sweep: discover the trip
// points each (query, plan, engine) run crosses, then re-run tripping each
// point — first and a mid-stream consultation — and pin the typed error,
// the unchanged engine, and zero leaked goroutines.
func TestFaultSweepAllPaperPlans(t *testing.T) {
	eng := runEngine(20)
	base := runtime.NumGoroutine()
	for id, text := range PaperQueries {
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, p := range q.Plans() {
			for _, reference := range []bool{false, true} {
				label := id + "/" + p.Name
				if reference {
					label += "/reference"
				}
				opts := engineOpts(p.Name, reference)

				// Baseline: the plan runs clean without a budget.
				var want strings.Builder
				res, err := q.Run(context.Background(), opts...)
				if err != nil {
					t.Fatalf("%s: baseline Run: %v", label, err)
				}
				if err := res.WriteXML(&want); err != nil {
					t.Fatalf("%s: baseline run: %v", label, err)
				}
				res.Close()

				// Discovery: which boundaries does this run consult?
				rec := &pointRecorder{}
				if err := runToDiscard(t, q, append(opts, withFaultHook(rec.hook))...); err != nil {
					t.Fatalf("%s: discovery run: %v", label, err)
				}
				if len(rec.order) == 0 {
					t.Fatalf("%s: run consulted no trip points", label)
				}
				if rec.counts["scan"] == 0 || rec.counts["serialize"] == 0 {
					t.Fatalf("%s: scan/serialize boundaries not consulted: %v", label, rec.counts)
				}

				// The sweep: trip each consulted point, at its first
				// consultation and mid-stream.
				for _, point := range rec.order {
					for _, n := range []int{1, (rec.counts[point] + 1) / 2} {
						if n < 1 {
							n = 1
						}
						h := &tripAt{point: point, n: n}
						err := runToDiscard(t, q, append(opts, withFaultHook(h.hook))...)
						re := requireResourceError(t, err, point)
						if re.Query != q.Text || re.Plan != p.Name {
							t.Fatalf("%s: trip at %s[%d]: error names query %q plan %q",
								label, point, n, re.Query, re.Plan)
						}
					}
				}

				// The engine is unaffected: the same plan still answers
				// byte-identically.
				var got strings.Builder
				res, err = q.Run(context.Background(), opts...)
				if err != nil {
					t.Fatalf("%s: post-sweep Run: %v", label, err)
				}
				if err := res.WriteXML(&got); err != nil {
					t.Fatalf("%s: post-sweep run: %v", label, err)
				}
				res.Close()
				if got.String() != want.String() {
					t.Fatalf("%s: result changed after fault sweep", label)
				}
			}
		}
	}
	waitGoroutines(t, base)
}

// TestFaultTripSurfacesThroughNext pins the typed-consumption path: a trip
// mid-iteration ends the stream with the ResourceError on Err, and the
// session stays cleanly ended.
func TestFaultTripSurfacesThroughNext(t *testing.T) {
	eng := runEngine(20)
	q, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	h := &tripAt{point: "serialize", n: 3}
	res, err := q.Run(context.Background(), withFaultHook(h.hook))
	if err != nil {
		t.Fatalf("Run itself must not fail (evaluation is lazy): %v", err)
	}
	defer res.Close()
	n := 0
	for range res.Seq() {
		n++
	}
	requireResourceError(t, res.Err(), "serialize")
	if _, ok := res.Next(); ok {
		t.Fatal("Next yielded an item after the budget trip")
	}
	if err := res.Close(); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("Close = %v, want the ResourceError", err)
	}
}

// TestWithMaxMemoryAborts drives a real byte budget: a grouping plan over
// the corpus cannot fit 4 KiB of materialized state, and the run fails with
// the typed error carrying the limit it crossed.
func TestWithMaxMemoryAborts(t *testing.T) {
	eng := runEngine(50)
	q, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	werr := runToDiscard(t, q, WithMaxMemory(4<<10))
	re := requireResourceError(t, werr, "")
	if re.MaxBytes != 4<<10 {
		t.Fatalf("ResourceError.MaxBytes = %d, want %d", re.MaxBytes, 4<<10)
	}
	if re.Bytes <= re.MaxBytes {
		t.Fatalf("ResourceError.Bytes = %d, not past the %d limit", re.Bytes, re.MaxBytes)
	}
}

// TestWithMaxTuplesAborts drives the tuple budget on both engines.
func TestWithMaxTuplesAborts(t *testing.T) {
	eng := runEngine(50)
	q, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	for _, reference := range []bool{false, true} {
		opts := []RunOption{WithMaxTuples(5)}
		if reference {
			opts = append(opts, WithReferenceEngine())
		}
		re := requireResourceError(t, runToDiscard(t, q, opts...), "")
		if re.MaxTuples != 5 || re.Tuples <= 5 {
			t.Fatalf("reference=%v: tuples %d / max %d", reference, re.Tuples, re.MaxTuples)
		}
	}
}

// TestBudgetWithinLimitIsInvisible: a generous budget changes nothing about
// the result, and the charge counters surface through Stats.
func TestBudgetWithinLimitIsInvisible(t *testing.T) {
	eng := runEngine(30)
	for id, text := range PaperQueries {
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want, _, err := execute(q, "")
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var st Stats
		var got strings.Builder
		res, err := q.Run(context.Background(), WithMaxMemory(1<<30), WithStats(&st))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := res.WriteXML(&got); err != nil {
			t.Fatalf("%s: budgeted run failed: %v", id, err)
		}
		res.Close()
		if got.String() != want {
			t.Fatalf("%s: budgeted result differs from unbudgeted", id)
		}
		if st.BudgetBytes <= 0 || st.BudgetTuples <= 0 {
			t.Fatalf("%s: budget counters not recorded: %+v", id, st)
		}
	}
}

// TestConcurrentBudgetIsolation: an over-budget run fails while concurrent
// in-budget runs of the same compiled query on the same engine succeed —
// the budget is per run, not per engine.
func TestConcurrentBudgetIsolation(t *testing.T) {
	eng := runEngine(50)
	q, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := execute(q, "")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		budgeted := i%2 == 0
		go func() {
			res, err := q.Run(context.Background(), func() []RunOption {
				if budgeted {
					return []RunOption{WithMaxMemory(4 << 10)}
				}
				return nil
			}()...)
			if err != nil {
				errs <- err
				return
			}
			defer res.Close()
			var sb strings.Builder
			err = res.WriteXML(&sb)
			if budgeted {
				if !errors.Is(err, ErrResourceExhausted) {
					errs <- errors.New("budgeted run did not trip")
					return
				}
			} else if err != nil {
				errs <- err
				return
			} else if sb.String() != want {
				errs <- errors.New("in-budget run returned a wrong result")
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
