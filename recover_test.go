package nalquery

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/dom"
	"nalquery/internal/value"
)

// panicIndex is an injected poison: an index whose every look-up panics. A
// scan over it is a plan the engine types and opens like any other and that
// panics inside whichever evaluator runs it — it stands in for any evaluator
// bug, so the tests pin the recovery boundary itself, not one particular
// crash.
type panicIndex struct{ msg any }

func (p panicIndex) Doc() *dom.Document                  { panic(p.msg) }
func (p panicIndex) ScanAll() []int32                    { panic(p.msg) }
func (p panicIndex) ProbeEq(value.Value) ([]int32, bool) { panic(p.msg) }

// poisonQuery compiles a valid query, then replaces its plan set with the
// panicking scan under the given plan name.
func poisonQuery(t *testing.T, msg any) *Query {
	t.Helper()
	eng := runEngine(20)
	q, err := eng.Compile(`let $d1 := doc("bib.xml")
		for $t1 in $d1//book/title
		return <t>{ $t1 }</t>`)
	if err != nil {
		t.Fatal(err)
	}
	q.plans = []Plan{{Name: "poison", op: algebra.IndexScan{In: algebra.Singleton{}, Attr: "b",
		Index: panicIndex{msg: msg}}}}
	return q
}

// requireInternal asserts err is the typed *InternalError with the
// expected payload.
func requireInternal(t *testing.T, err error, q *Query) *InternalError {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error from the panicking plan, got nil")
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("error %v does not match ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("error %T is not *InternalError", err)
	}
	if ie.Query != q.Text {
		t.Fatalf("InternalError.Query = %q, want the poison query text", ie.Query)
	}
	if ie.Plan != "poison" {
		t.Fatalf("InternalError.Plan = %q, want %q", ie.Plan, "poison")
	}
	if !strings.Contains(string(ie.Stack), "panicIndex") {
		t.Fatalf("InternalError.Stack does not include the panic origin:\n%s", ie.Stack)
	}
	return ie
}

func TestNextRecoversEvaluatorPanic(t *testing.T) {
	q := poisonQuery(t, "boom")
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatalf("Run itself must not fail (evaluation is lazy): %v", err)
	}
	defer res.Close()
	if _, ok := res.Next(); ok {
		t.Fatal("Next returned an item from a panicking plan")
	}
	ie := requireInternal(t, res.Err(), q)
	if ie.Panic != "boom" {
		t.Fatalf("InternalError.Panic = %v, want boom", ie.Panic)
	}
	// The stream stays ended; the session is reusable only for Err/Close.
	if _, ok := res.Next(); ok {
		t.Fatal("Next yielded an item after the stream failed")
	}
	if err := res.Close(); !errors.Is(err, ErrInternal) {
		t.Fatalf("Close = %v, want the InternalError", err)
	}
}

func TestWriteXMLRecoversEvaluatorPanic(t *testing.T) {
	q := poisonQuery(t, errors.New("kaput"))
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	werr := res.WriteXML(io.Discard)
	ie := requireInternal(t, werr, q)
	// A panic(error) unwraps to its cause.
	var cause error
	if cause = errors.Unwrap(ie); cause == nil || cause.Error() != "kaput" {
		t.Fatalf("Unwrap = %v, want the panicked error", cause)
	}
}

func TestNamedPlanRunRecoversEvaluatorPanic(t *testing.T) {
	q := poisonQuery(t, 42)
	if _, _, err := execute(q, "poison"); !errors.Is(err, ErrInternal) {
		t.Fatalf("Run+WriteXML = %v, want ErrInternal", err)
	}
}

func TestPreparedRunRecoversEvaluatorPanic(t *testing.T) {
	var p *Prepared = poisonQuery(t, "boom")
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if err := res.WriteXML(io.Discard); !errors.Is(err, ErrInternal) {
		t.Fatalf("Prepared WriteXML = %v, want ErrInternal", err)
	}
}

// TestEngineSurvivesPoisonQuery is the process-level robustness property:
// after a poison query fails its run, the same engine keeps answering
// healthy queries.
func TestEngineSurvivesPoisonQuery(t *testing.T) {
	eng := runEngine(20)
	text := `let $d1 := doc("bib.xml")
		for $t1 in $d1//book/title
		return <t>{ $t1 }</t>`
	q, err := eng.Compile(text)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := execute(q, "")
	if err != nil {
		t.Fatal(err)
	}
	poison := poisonQuery(t, "boom")
	for i := 0; i < 3; i++ {
		if _, _, err := execute(poison, ""); !errors.Is(err, ErrInternal) {
			t.Fatalf("poison run %d: %v, want ErrInternal", i, err)
		}
		got, err := eng.Query(text)
		if err != nil {
			t.Fatalf("healthy query after poison run %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("healthy query result changed after poison run %d", i)
		}
	}
}

// TestSeqStopsOnEvaluatorPanic pins the range-func adaptor: the loop ends
// instead of panicking, and Err carries the InternalError.
func TestSeqStopsOnEvaluatorPanic(t *testing.T) {
	q := poisonQuery(t, "boom")
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	n := 0
	for range res.Seq() {
		n++
	}
	if n != 0 {
		t.Fatalf("Seq yielded %d items from a panicking plan", n)
	}
	requireInternal(t, res.Err(), q)
}

// TestCompileRecoversPanic pins the compile boundary's recover backstop:
// a panic anywhere in parse/normalize/translate/rewrite surfaces as a
// typed *InternalError carrying the query text and stack, never as a
// process crash — and the engine stays usable afterwards.
func TestCompileRecoversPanic(t *testing.T) {
	eng := runEngine(20)
	compilePanicHook = func() { panic("injected compile panic") }
	defer func() { compilePanicHook = nil }()

	const text = `let $d1 := doc("bib.xml")
		for $t1 in $d1//book/title
		return <t>{ $t1 }</t>`
	q, err := eng.Compile(text)
	if q != nil || err == nil {
		t.Fatalf("Compile = (%v, %v), want (nil, *InternalError)", q, err)
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("error %v does not match ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("error %T is not *InternalError", err)
	}
	if ie.Query != text {
		t.Fatalf("InternalError.Query = %q, want the compiled text", ie.Query)
	}
	if ie.Panic != "injected compile panic" {
		t.Fatalf("InternalError.Panic = %v", ie.Panic)
	}
	if !strings.Contains(string(ie.Stack), "compileState") {
		t.Fatalf("stack does not show the compile boundary:\n%s", ie.Stack)
	}

	// Prepare shares the boundary.
	if _, err := eng.Prepare(text); !errors.Is(err, ErrInternal) {
		t.Fatalf("Prepare error %v does not match ErrInternal", err)
	}

	// The engine must shrug the poison off entirely.
	compilePanicHook = nil
	p, err := eng.Prepare(text)
	if err != nil {
		t.Fatalf("engine unusable after compile panic: %v", err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
}

// TestExplainCardsRecoversEvaluatorPanic: measuring actual cardinalities
// executes the plan, so ExplainCards is an execution boundary like Run — a
// panicking evaluator comes back as the typed *InternalError.
func TestExplainCardsRecoversEvaluatorPanic(t *testing.T) {
	q := poisonQuery(t, "boom")
	rows, err := q.ExplainCards("poison")
	if rows != nil {
		t.Fatalf("ExplainCards returned %d rows from a panicking plan", len(rows))
	}
	if ie := requireInternal(t, err, q); ie.Panic != "boom" {
		t.Fatalf("InternalError.Panic = %v, want boom", ie.Panic)
	}
}
