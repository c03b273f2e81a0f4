package nalquery

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nalquery/internal/dom"
	"nalquery/internal/schema"
)

// The prepared-query surface: external-variable binding must be
// observationally equivalent to compiling the literal-substituted query
// text — on every plan alternative, on both engines — while performing
// zero recompilations and staying race-clean under concurrent binding.

// paramCase parameterizes one paper query: template contains the marker
// %P% where the prepared form reads the external variable $xv and the
// literal form substitutes lit. bind is the Go value whose engine
// representation equals lit.
type paramCase struct {
	id       string
	template string
	lit      string
	bind     any
}

// paramCases covers every paper query (Sec. 5): queries with a natural
// constant (q4's author, q5's year, q6's count threshold) parameterize it;
// the others gain a parametric selection on the outer variable, which
// filters nothing under the chosen binding but exercises the same
// Param-vs-literal compilation difference.
func paramCases() []paramCase {
	with := func(text, where string) string {
		return strings.Replace(text, "return", where+"\nreturn", 1)
	}
	return []paramCase{
		{"q1", with(QueryQ1Grouping, `where $a1 >= %P%`), `""`, ""},
		{"q1dblp", with(QueryQ1DBLP, `where $a1 >= %P%`), `""`, ""},
		{"q2", with(QueryQ2Aggregation, `where $t1 >= %P%`), `""`, ""},
		{"q3", strings.Replace(QueryQ3Existential,
			"satisfies $t1 = $t2", "satisfies $t1 = $t2 and $t1 >= %P%", 1), `""`, ""},
		{"q4", strings.Replace(QueryQ4Exists,
			`contains($a2, "Suciu")`, "contains($a2, %P%)", 1), `"Suciu"`, "Suciu"},
		{"q5", strings.Replace(QueryQ5Universal,
			"$b2/@year > 1993", "$b2/@year > %P%", 1), "1993", 1993},
		{"q6", strings.Replace(QueryQ6HavingCount,
			">= 3", ">= %P%", 1), "3", 3},
	}
}

func (c paramCase) preparedText() string {
	return "declare variable $xv external;\n" + strings.ReplaceAll(c.template, "%P%", "$xv")
}

func (c paramCase) literalText() string {
	return strings.ReplaceAll(c.template, "%P%", c.lit)
}

// runToString executes one plan of a session source and serializes it.
func runToString(t *testing.T, run func() (*Results, error)) string {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	defer res.Close()
	var sb strings.Builder
	if err := res.WriteXML(&sb); err != nil {
		t.Fatalf("write: %v", err)
	}
	return sb.String()
}

// TestPreparedDifferentialAllPlans is the tentpole equivalence pin: for
// every parameterized paper query, Prepare+Bind produces results identical
// to compiling the literal-substituted text — on every plan alternative,
// on both the slot engine and the reference evaluator — and derives the
// same plan set (bindings never change the alternatives).
func TestPreparedDifferentialAllPlans(t *testing.T) {
	e := tinyEngine(t)
	e.LoadDBLPDocument(40)
	for _, c := range paramCases() {
		prep, err := e.Prepare(c.preparedText())
		if err != nil {
			t.Fatalf("%s: prepare: %v", c.id, err)
		}
		lit, err := e.Compile(c.literalText())
		if err != nil {
			t.Fatalf("%s: compile literal: %v", c.id, err)
		}
		if got, want := planNames(prep.Query()), planNames(lit); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: plan sets differ: prepared %v, literal %v", c.id, got, want)
			continue
		}
		for _, p := range lit.Plans() {
			for _, ref := range []bool{false, true} {
				opts := []RunOption{WithPlan(p.Name)}
				if ref {
					opts = append(opts, WithReferenceEngine())
				}
				want := runToString(t, func() (*Results, error) {
					return lit.Run(context.Background(), opts...)
				})
				got := runToString(t, func() (*Results, error) {
					return prep.Run(context.Background(), append(opts, Bind("xv", c.bind))...)
				})
				if got != want {
					t.Errorf("%s/%s (ref=%v): prepared result differs from literal substitution\nlit:  %.200q\nprep: %.200q",
						c.id, p.Name, ref, want, got)
				}
			}
		}
	}
}

// TestPreparedZeroRecompiles pins the compile-once/run-many contract with
// the engine's compile counter: N runs of one Prepared with N distinct
// bindings perform zero additional compilation passes.
func TestPreparedZeroRecompiles(t *testing.T) {
	e := tinyEngine(t)
	prep, err := e.Prepare(`
declare variable $minyear external;
let $d1 := doc("bib.xml")
for $b1 in $d1//book
where $b1/@year > $minyear
return $b1/title`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	before := e.compiles.Load()
	for i := 0; i < 50; i++ {
		res, err := prep.Run(context.Background(), Bind("minyear", 1900+i))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		var sb strings.Builder
		if err := res.WriteXML(&sb); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		res.Close()
	}
	if after := e.compiles.Load(); after != before {
		t.Fatalf("50 runs of one Prepared recompiled %d times", after-before)
	}
}

// TestPreparedBindingsSelect verifies bindings actually steer the
// parametric predicate (not just re-run one constant plan).
func TestPreparedBindingsSelect(t *testing.T) {
	e := NewEngine()
	if err := e.LoadXMLString("n.xml", `<ns><n v="1"/><n v="2"/><n v="3"/></ns>`); err != nil {
		t.Fatal(err)
	}
	prep, err := e.Prepare(`
declare variable $min external;
let $d := doc("n.xml")
for $n in $d//n
where $n/@v >= $min
return <k>{ $n/@v }</k>`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for min, want := range map[int]int{1: 3, 2: 2, 3: 1, 4: 0} {
		out := runToString(t, func() (*Results, error) {
			return prep.Run(context.Background(), Bind("min", min))
		})
		if got := strings.Count(out, "<k>"); got != want {
			t.Errorf("min=%d: %d results, want %d (%q)", min, got, want, out)
		}
	}
}

// TestPreparedSequenceBinding binds a sequence value: the membership
// comparison takes XQuery's existential semantics over it.
func TestPreparedSequenceBinding(t *testing.T) {
	e := NewEngine()
	if err := e.LoadXMLString("a.xml", `<as><a>alice</a><a>bob</a><a>carol</a></as>`); err != nil {
		t.Fatal(err)
	}
	prep, err := e.Prepare(`
declare variable $names external;
let $d1 := doc("a.xml")
for $a1 in distinct-values($d1//a)
where $a1 = $names
return <m>{ $a1 }</m>`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	out := runToString(t, func() (*Results, error) {
		return prep.Run(context.Background(), Bind("names", []any{"alice", "carol"}))
	})
	if !strings.Contains(out, "alice") || !strings.Contains(out, "carol") || strings.Contains(out, "bob") {
		t.Errorf("sequence binding missed members: %q", out)
	}
	none := runToString(t, func() (*Results, error) {
		return prep.Run(context.Background(), Bind("names", []any{"Nobody"}))
	})
	if strings.Contains(none, "<m>") {
		t.Errorf("empty match expected, got %q", none)
	}
}

// TestPreparedShadowing: a clause binding of the same name shadows the
// external variable, matching XQuery scoping.
func TestPreparedShadowing(t *testing.T) {
	e := tinyEngine(t)
	prep, err := e.Prepare(`
declare variable $t external;
let $d1 := doc("bib.xml")
for $t in $d1//book/title
return <t>{ string($t) }</t>`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	out := runToString(t, func() (*Results, error) {
		return prep.Run(context.Background(), Bind("t", "bound-value"))
	})
	if strings.Contains(out, "bound-value") {
		t.Errorf("external binding leaked through a shadowing for clause: %q", out)
	}
	if !strings.Contains(out, "<t>") {
		t.Errorf("shadowed loop produced no results: %q", out)
	}

	// Shadowing ends with the shadowing scope: after a quantifier whose
	// variable shadows the external, a later reference resolves to the
	// external again (not to an unbound tuple attribute).
	prep2, err := e.Prepare(`
declare variable $y external;
let $d1 := doc("bib.xml")
for $b1 in $d1//book
where (some $y in $b1/author satisfies $y/last = "Nosuch") or $b1/@year > $y
return $b1/title`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	out2 := runToString(t, func() (*Results, error) {
		return prep2.Run(context.Background(), Bind("y", 0))
	})
	if got := strings.Count(out2, "<title>"); got != 4 {
		t.Errorf("external reference after quantifier scope: %d titles, want all 4 (%q)", got, out2)
	}
}

// TestBindErrors pins the typed binding-error surface: unbound, unknown
// and ill-typed bindings are *BindError values matching their sentinels —
// surfaced at Run time, never as a panic.
func TestBindErrors(t *testing.T) {
	e := tinyEngine(t)
	prep, err := e.Prepare(`
declare variable $a external;
declare variable $b external;
let $d1 := doc("bib.xml")
for $t1 in $d1//book/title
where $a <= $t1 and $t1 <= $b
return $t1`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	ctx := context.Background()

	_, err = prep.Run(ctx, Bind("a", "x"))
	if !errors.Is(err, ErrUnboundVariable) {
		t.Errorf("missing $b: got %v, want ErrUnboundVariable", err)
	}
	var be *BindError
	if !errors.As(err, &be) || be.Var != "b" {
		t.Errorf("missing $b: got %v, want *BindError for b", err)
	}

	_, err = prep.Run(ctx, Bind("a", "x"), Bind("b", "y"), Bind("nope", 1))
	if !errors.Is(err, ErrUnknownVariable) {
		t.Errorf("unknown $nope: got %v, want ErrUnknownVariable", err)
	}

	_, err = prep.Run(ctx, Bind("a", struct{ X int }{1}), Bind("b", "y"))
	if !errors.Is(err, ErrBindValue) {
		t.Errorf("struct binding: got %v, want ErrBindValue", err)
	}

	// Unsigned values bind in range and error beyond int64 instead of
	// silently wrapping negative.
	if res, err := prep.Run(ctx, Bind("a", uint64(5)), Bind("b", "y")); err != nil {
		t.Errorf("uint64 binding: %v", err)
	} else {
		res.Close()
	}
	if _, err := prep.Run(ctx, Bind("a", uint64(1)<<63), Bind("b", "y")); !errors.Is(err, ErrBindValue) {
		t.Errorf("overflowing uint64: got %v, want ErrBindValue", err)
	}

	// A query without externals rejects any Bind.
	plain, err := e.Compile(`let $d1 := doc("bib.xml") for $t1 in $d1//book/title return $t1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Run(ctx, Bind("a", 1)); !errors.Is(err, ErrUnknownVariable) {
		t.Errorf("bind on plain query: got %v, want ErrUnknownVariable", err)
	}

	// A run that binds nothing must surface the typed error, not panic or
	// return wrong results.
	if _, _, err := execute(prep.Query(), ""); !errors.Is(err, ErrUnboundVariable) {
		t.Errorf("unbound run of parameterized query: got %v, want ErrUnboundVariable", err)
	}

	// Rebinding keeps the last value; nil binds the empty sequence.
	res, err := prep.Run(ctx, Bind("a", "zzz"), Bind("b", "y"), Bind("a", ""))
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	res.Close()
	// Last-wins extends to conversion errors: a valid rebind supersedes an
	// earlier ill-typed one.
	if res, err := prep.Run(ctx, Bind("a", struct{}{}), Bind("a", "ok"), Bind("b", "y")); err != nil {
		t.Errorf("valid rebind after ill-typed bind: %v", err)
	} else {
		res.Close()
	}
	if res2, err := prep.Run(ctx, Bind("a", nil), Bind("b", "y")); err != nil {
		t.Fatalf("nil binding should satisfy the bound check: %v", err)
	} else {
		res2.Close()
	}
}

// TestPreparedParseErrors pins the prolog's error surface.
func TestPreparedParseErrors(t *testing.T) {
	e := tinyEngine(t)
	var pe *ParseError
	if _, err := e.Prepare("declare variable $x external; declare variable $x external;\n" +
		`let $d := doc("bib.xml") for $t in $d//title return $t`); !errors.As(err, &pe) {
		t.Errorf("duplicate declaration: got %v, want *ParseError", err)
	}
	if _, err := e.Prepare("declare variable $x := 3;\n" +
		`let $d := doc("bib.xml") for $t in $d//title return $t`); !errors.As(err, &pe) {
		t.Errorf("initialized declaration: got %v, want *ParseError", err)
	}
}

// TestPreparedConcurrentDistinctBindings races ≥12 Runs of one Prepared,
// each with its own binding, and checks each sees exactly its own
// parameter — per-run binding tables never bleed across sessions. CI runs
// this under -race (make race-test).
func TestPreparedConcurrentDistinctBindings(t *testing.T) {
	e := NewEngine()
	var docs strings.Builder
	docs.WriteString("<ns>")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&docs, `<n v="%d"/>`, i)
	}
	docs.WriteString("</ns>")
	if err := e.LoadXMLString("n.xml", docs.String()); err != nil {
		t.Fatal(err)
	}
	prep, err := e.Prepare(`
declare variable $want external;
let $d := doc("n.xml")
for $n in $d//n
where $n/@v = $want
return <hit>{ $n/@v }</hit>`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	const runners = 16
	var wg sync.WaitGroup
	errs := make(chan error, runners)
	for g := 0; g < runners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				res, err := prep.Run(context.Background(), Bind("want", g))
				if err != nil {
					errs <- err
					return
				}
				var sb strings.Builder
				if err := res.WriteXML(&sb); err != nil {
					errs <- err
					return
				}
				res.Close()
				want := fmt.Sprintf("<hit>%d</hit>", g)
				if sb.String() != want {
					errs <- fmt.Errorf("goroutine %d saw %q, want %q", g, sb.String(), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEngineLoadRacesPrepareAndRun pins the copy-on-write engine core:
// LoadXML, Prepare, the cached RunText path and Runs of an existing
// Prepared all proceed concurrently. Run under -race this is the data-race
// gate for the snapshot scheme (the seed engine mutated an unsynchronized
// map under Compile readers).
func TestEngineLoadRacesPrepareAndRun(t *testing.T) {
	e := NewEngine()
	if err := e.LoadXMLString("n.xml", `<ns><n v="1"/><n v="2"/></ns>`); err != nil {
		t.Fatal(err)
	}
	const text = `
declare variable $min external;
let $d := doc("n.xml")
for $n in $d//n
where $n/@v >= $min
return <k>{ $n/@v }</k>`
	prep, err := e.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Loader: keeps publishing new documents (fresh URIs and overwrites).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			uri := fmt.Sprintf("doc%d.xml", i%4)
			if err := e.LoadXMLString(uri, fmt.Sprintf(`<d i="%d"/>`, i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Preparers: full compilations racing the loader.
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := e.Prepare(text); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Cached convenience path racing generation bumps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := e.Query(`let $d := doc("n.xml") for $n in $d//n return $n`); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Runners: ≥12 concurrent executions of the one Prepared.
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := prep.Run(context.Background(), Bind("min", g%3))
				if err != nil {
					errs <- err
					return
				}
				var sb strings.Builder
				if err := res.WriteXML(&sb); err != nil {
					errs <- err
					return
				}
				res.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanCache pins the convenience-path cache: hits on repeated text,
// LRU eviction at the bound, and invalidation when the document set (the
// catalog generation) moves.
func TestPlanCache(t *testing.T) {
	e := NewEngine()
	if err := e.LoadXMLString("n.xml", `<ns><n v="1"/></ns>`); err != nil {
		t.Fatal(err)
	}
	const q1 = `let $d := doc("n.xml") for $n in $d//n return <a>{ $n/@v }</a>`
	const q2 = `let $d := doc("n.xml") for $n in $d//n return <b>{ $n/@v }</b>`

	base := e.compiles.Load()
	for i := 0; i < 5; i++ {
		if _, err := e.Query(q1); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.compiles.Load() - base; got != 1 {
		t.Errorf("5 × Query(same text): %d compiles, want 1", got)
	}
	st := e.PlanCacheStats()
	if st.Hits != 4 || st.Misses != 1 {
		t.Errorf("cache stats after repeats: %+v, want 4 hits / 1 miss", st)
	}

	// RunText shares the cache with Query.
	res, err := e.RunText(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if got := e.compiles.Load() - base; got != 1 {
		t.Errorf("RunText after Query recompiled (total %d compiles)", got)
	}

	// Loading a document moves the generation: the next lookup misses and
	// the recompiled plan sees the new document.
	if err := e.LoadXMLString("n.xml", `<ns><n v="1"/><n v="2"/></ns>`); err != nil {
		t.Fatal(err)
	}
	out, err := e.Query(q1)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.compiles.Load() - base; got != 2 {
		t.Errorf("after generation bump: %d compiles, want 2", got)
	}
	if strings.Count(out, "<a>") != 2 {
		t.Errorf("stale plan served after document reload: %q", out)
	}

	// A catalog edit moves the generation too; reading the catalog does
	// not (Catalog() is a cheap getter, so per-request inspection never
	// flushes the cache).
	if _, err := e.Query(q1); err != nil {
		t.Fatal(err)
	}
	preRead := e.compiles.Load()
	_ = e.Catalog().Has("n.xml")
	if _, err := e.Query(q1); err != nil {
		t.Fatal(err)
	}
	if got := e.compiles.Load() - preRead; got != 0 {
		t.Errorf("Catalog() read flushed the plan cache (%d compiles)", got)
	}
	e.EditCatalog(func(cat *schema.Catalog) { cat.Doc("n.xml").Child("ns", "n", 0, -1) })
	if _, err := e.Query(q1); err != nil {
		t.Fatal(err)
	}
	if got := e.compiles.Load() - preRead; got != 1 {
		t.Errorf("EditCatalog did not invalidate the plan cache (%d compiles, want 1)", got)
	}

	// Eviction at the bound: capacity 1 alternating two texts always
	// misses; both texts stay correct. Disable first to drop the q1 entry
	// still cached from above.
	e.SetPlanCacheSize(0)
	e.SetPlanCacheSize(1)
	preEvict := e.compiles.Load()
	for i := 0; i < 3; i++ {
		if _, err := e.Query(q1); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Query(q2); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.compiles.Load() - preEvict; got != 6 {
		t.Errorf("capacity-1 alternation: %d compiles, want 6", got)
	}
	if st := e.PlanCacheStats(); st.Entries != 1 {
		t.Errorf("capacity-1 cache holds %d entries", st.Entries)
	}

	// Disabling drops everything and stops caching.
	e.SetPlanCacheSize(0)
	if st := e.PlanCacheStats(); st.Entries != 0 {
		t.Errorf("disabled cache holds %d entries", st.Entries)
	}
}

// TestPlanCacheDropsSupersededGenerations: an entry compiled under an older
// generation can never hit again, and its Query keeps that generation's
// documents alive — so the first cached compile under a newer generation
// drops every older entry, and a replaced document becomes collectable.
func TestPlanCacheDropsSupersededGenerations(t *testing.T) {
	const text = `let $d := doc("n.xml") for $n in $d//n return <a>{ $n/@v }</a>`
	e := NewEngine()

	// Nothing a document owns points back at the *Document (node rows point
	// at their table), so it is outside every cycle and its finalizer runs
	// as soon as no snapshot holds it.
	first, err := dom.Parse(strings.NewReader(`<ns><n v="0"/></ns>`), "n.xml")
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(first, func(*dom.Document) { close(freed) })
	e.LoadDocument(first)
	first = nil
	if _, err := e.Query(text); err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= 20; i++ {
		if err := e.LoadXMLString("n.xml", fmt.Sprintf(`<ns><n v="%d"/></ns>`, i)); err != nil {
			t.Fatal(err)
		}
		out, err := e.Query(text)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(`<a>%d</a>`, i); out != want {
			t.Fatalf("round %d: stale result %q", i, out)
		}
	}
	if st := e.PlanCacheStats(); st.Entries != 1 || st.Hits != 0 || st.Misses != 21 {
		t.Errorf("after 20 reload+query rounds: %+v, want 1 entry, 0 hits, 21 misses", st)
	}
	collected := false
	for i := 0; i < 100 && !collected; i++ {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !collected {
		t.Errorf("the replaced document is still reachable after a cached compile under a newer generation")
	}

	// A compile that lost the race with a load must not bring its stale
	// query back, nor displace the current generation's entries.
	st := e.snapshot()
	q, err := e.compileState(st, text, compileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e.cache.put("older", st.gen-1, q)
	if _, ok := e.cache.get("older", st.gen-1); ok {
		t.Errorf("an entry of a superseded generation was cached")
	}
	if _, ok := e.cache.get(text, st.gen); !ok {
		t.Errorf("a stale put displaced the current generation's entry")
	}
}

// TestRunTextBindings: the cached convenience path supports external
// variables end to end.
func TestRunTextBindings(t *testing.T) {
	e := NewEngine()
	if err := e.LoadXMLString("n.xml", `<ns><n v="1"/><n v="2"/><n v="3"/></ns>`); err != nil {
		t.Fatal(err)
	}
	const text = `
declare variable $min external;
let $d := doc("n.xml")
for $n in $d//n
where $n/@v >= $min
return <k>{ $n/@v }</k>`
	base := e.compiles.Load()
	for min, want := range map[int]int{1: 3, 3: 1} {
		res, err := e.RunText(context.Background(), text, Bind("min", min))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := res.WriteXML(&sb); err != nil {
			t.Fatal(err)
		}
		res.Close()
		if got := strings.Count(sb.String(), "<k>"); got != want {
			t.Errorf("min=%d: %d results, want %d", min, got, want)
		}
	}
	if got := e.compiles.Load() - base; got != 1 {
		t.Errorf("RunText with different bindings recompiled: %d compiles, want 1", got)
	}
}
