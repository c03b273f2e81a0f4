package nalquery

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/value"
)

// Nested sub-plans — NestedApply, un-rewritten ∃/∀ ranges — run on the row
// engine, opened once per outer tuple. These tests hold that path against
// the definitional evaluator behind WithReferenceEngine: the same bytes and
// the same work, on the shapes where environments are easiest to get wrong.

// nestedQueries are, beside the paper queries, three shapes their nested
// plans do not have.
var nestedQueries = map[string]string{
	// A nested block inside a nested block; the innermost plan reads $a1 of
	// the middle level and $b1 of the outermost.
	"nested in nested": `
let $d1 := doc("bib.xml")
for $b1 in $d1//book
return <book>{ $b1/title }{
  for $a1 in $b1/author
  where count(for $b2 in $d1//book
              where $b2/author/last = $a1/last and $b2/@year >= $b1/@year
              return $b2) > 1
  return $a1 }</book>`,
	// ∃ inside the predicate of ∀: its range runs under the outer row
	// extended by the ∀ variable. Books without authors make the ∀ range
	// empty (vacuously true) for some outer tuples.
	"∃ inside ∀": `
let $d1 := doc("bib.xml")
for $b1 in $d1//book
where every $a1 in $b1/author satisfies
      (some $b2 in $d1//book satisfies ($b2/author/last = $a1/last and $b2/title != $b1/title))
return $b1/title`,
	// A correlated ∃ range that is empty for most outer tuples, with a
	// predicate that is not just true().
	"correlated ∃ range": `
let $d1 := doc("bib.xml")
for $b1 in $d1//book
where some $e1 in (let $d2 := doc("reviews.xml")
                   for $e2 in $d2//entry
                   where $e2/title = $b1/title
                   return $e2)
      satisfies $e1/price > 50
return $b1/title`,
}

// TestNestedPlansMatchReferenceEngine: every plan that evaluates a nested
// expression produces, on the row engine, the bytes of the definitional
// evaluator — serialized and typed — and does the same work: the same scans,
// tuples, nested-loop iterations, index probes and budget tuples. (Budget
// bytes are not comparable across the two: the reference evaluator accounts
// a map entry, 48 bytes, where the row engine accounts a slot, 16 — on every
// plan, nested or not.)
func TestNestedPlansMatchReferenceEngine(t *testing.T) {
	eng := runEngine(40)
	texts := map[string]string{}
	for id, text := range PaperQueries {
		texts[id] = text
	}
	for id, text := range nestedQueries {
		texts[id] = text
	}
	nested := 0
	for id, text := range texts {
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, p := range q.Plans() {
			name := id + "/" + p.Name
			want, ref, err := execute(q, p.Name, WithMaxMemory(1<<30), WithReferenceEngine())
			if err != nil {
				t.Fatalf("%s on the reference evaluator: %v", name, err)
			}
			if ref.NestedEvals == 0 {
				continue
			}
			nested++
			if !p.resolved().OK {
				t.Errorf("%s does not resolve", name)
				continue
			}
			got, st, err := execute(q, p.Name, WithMaxMemory(1<<30))
			if err != nil {
				t.Fatalf("%s on the row engine: %v", name, err)
			}
			if got != want {
				t.Errorf("%s: the row engine's output differs from the reference evaluator's\nwant %.300q\ngot  %.300q", name, want, got)
			}
			if st.BudgetBytes <= 0 || st.BudgetBytes > ref.BudgetBytes {
				t.Errorf("%s: the row engine charged %d bytes, the reference evaluator %d", name, st.BudgetBytes, ref.BudgetBytes)
			}
			st.BudgetBytes, ref.BudgetBytes = 0, 0
			if st != ref {
				t.Errorf("%s: the row engine counted %+v, the reference evaluator %+v", name, st, ref)
			}
			res, err := q.Run(context.Background(), WithPlan(p.Name))
			if err != nil {
				t.Fatal(err)
			}
			if typed := collectXML(t, res); typed != want {
				t.Errorf("%s: typed consumption differs from the reference evaluator's output", name)
			}
		}
	}
	if nested < 12 {
		t.Fatalf("only %d plans evaluated a nested expression", nested)
	}
}

// TestNestedPlanCancelledDuringInnerOpen: a cancellation that arrives while
// an inner plan is open ends the run with the context's error — the inner
// scans poll it — part-way through the outer loop.
func TestNestedPlanCancelledDuringInnerOpen(t *testing.T) {
	eng := runEngine(200)
	q, err := eng.Compile(PaperQueries["q3"])
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := execute(q, "nested")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The outer scan produces one tuple per inner open, so the 5000th scanned
	// tuple is well inside some inner plan's open.
	scanned := 0
	res, err := q.Run(ctx, WithPlan("nested"), withFaultHook(func(point string) bool {
		if scanned++; scanned == 5000 {
			cancel()
		}
		return false
	}))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteXML(&sb); !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteXML = %v, want context.Canceled", err)
	}
	st := res.Stats()
	if st.NestedEvals == 0 || st.NestedEvals >= full.NestedEvals || st.Tuples >= full.Tuples {
		t.Errorf("cancelled run did %d nested evaluations and %d tuples, the full run %d and %d: want it stopped part-way",
			st.NestedEvals, st.Tuples, full.NestedEvals, full.Tuples)
	}
}

// TestNestedPlanBudgetTripInsideInnerPlan: a budget that the outer scan fits
// and the inner scans exhaust trips inside an inner plan, and surfaces like
// any other trip: *ResourceError naming the inner operator's boundary, the
// same on both evaluators.
func TestNestedPlanBudgetTripInsideInnerPlan(t *testing.T) {
	eng := runEngine(40)
	q, err := eng.Compile(PaperQueries["q3"])
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range [][]RunOption{nil, {WithReferenceEngine()}} {
		var st Stats
		err := runToDiscard(t, q, append(engine, WithPlan("nested"), WithMaxTuples(100), WithStats(&st))...)
		re := requireResourceError(t, err, algebra.TripScan)
		if re.Plan != "nested" || re.Tuples != 101 {
			t.Errorf("trip %+v, want plan nested at the 101st tuple", re)
		}
		// The outer scan's 40 tuples fit the budget: the trip is an inner
		// scan's, a few outer tuples in.
		if st.NestedEvals == 0 || st.NestedEvals > 3 {
			t.Errorf("tripped after %d nested evaluations, want inside one of the first inner plans", st.NestedEvals)
		}
	}
}

// TestUntypablePlanIsAnInternalError: a hand-built plan the resolver cannot
// type — a ⟕ whose inputs bind the same attribute — has no map-tuple
// evaluator to fall back to any more. The run is refused at the boundary as
// an *InternalError naming the operator, before any output; the definitional
// evaluator, being the specification, still runs it.
func TestUntypablePlanIsAnInternalError(t *testing.T) {
	eng := runEngine(20)
	q, err := eng.Compile(`let $d1 := doc("bib.xml") for $t1 in $d1//book/title return <t>{ $t1 }</t>`)
	if err != nil {
		t.Fatal(err)
	}
	scan := algebra.UnnestMap{In: algebra.Singleton{}, Attr: "x",
		E: algebra.ConstVal{V: value.Seq{value.Int(1), value.Int(2)}}}
	join := algebra.OuterJoin{L: scan, R: scan, Pred: algebra.ConstVal{V: value.Bool(true)},
		G: "x", Default: algebra.SFCount{}}
	q.plans = []Plan{{Name: "colliding", op: algebra.XiSimple{In: join,
		Cmds: []algebra.Command{algebra.ExprCmd(algebra.Var{Name: "x"})}}}}

	for mode, consume := range map[string]func(*Results) (string, error){
		"serialized": func(res *Results) (string, error) {
			var sb strings.Builder
			err := res.WriteXML(&sb)
			return sb.String(), err
		},
		"typed": func(res *Results) (string, error) {
			var sb strings.Builder
			for item := range res.Seq() {
				sb.WriteString(item.XML())
			}
			return sb.String(), res.Err()
		},
	} {
		res, err := q.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: Run itself must not fail (opening is lazy): %v", mode, err)
		}
		out, err := consume(res)
		var ie *InternalError
		if !errors.As(err, &ie) || !errors.Is(err, ErrInternal) {
			t.Fatalf("%s: error %v (%T), want *InternalError", mode, err, err)
		}
		if msg := fmt.Sprint(ie.Panic); ie.Plan != "colliding" || !strings.Contains(msg, join.String()) {
			t.Errorf("%s: InternalError for plan %q says %q, want it to name %s of plan colliding", mode, ie.Plan, msg, join)
		}
		if out != "" || res.Stats().Tuples != 0 {
			t.Errorf("%s: the refused plan ran: output %q, %d tuples", mode, out, res.Stats().Tuples)
		}
	}
	if out, _, err := execute(q, "colliding", WithReferenceEngine()); err != nil || out != "1212" {
		t.Errorf("reference evaluator: %q, %v; want the specification's 1212", out, err)
	}
}
