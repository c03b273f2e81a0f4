package nalquery

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/qgen"
	"nalquery/internal/xquery"
)

// This file is the pinned crash corpus: every query here was discovered by
// the qgen differential oracle or the native fuzz targets and exposed a
// real divergence, panic, or round-trip break. Each test carries its
// original reproducer (seed + index where generator-found) and fails with
// the same oracle the sweep uses, so a regression reports exactly like the
// original find.

func crasherEngine(t *testing.T) *Engine {
	t.Helper()
	eng := NewEngine()
	size, apb := qgen.DocSizes()
	eng.LoadUseCaseDocuments(size, apb)
	return eng
}

// assertAllPlansAgree runs the query through every plan alternative on both
// engines, each serialized and consumed as typed items, and fails on any
// divergence from
// the first plan's slot-engine output, or between the work the two engines
// count for a plan — the differential oracle, pinned.
func assertAllPlansAgree(t *testing.T, eng *Engine, query string) string {
	t.Helper()
	p, err := eng.Prepare(query)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	var ref string
	for pi, plan := range p.Plans() {
		var slot algebra.Stats
		for _, mode := range []struct {
			name string
			opts []RunOption
		}{
			{"slot", []RunOption{WithPlan(plan.Name)}},
			{"map", []RunOption{WithPlan(plan.Name), WithReferenceEngine()}},
		} {
			out, st, err := sweepRun(p, mode.opts)
			if err != nil {
				t.Fatalf("plan %q on %s engine: %v", plan.Name, mode.name, err)
			}
			if mode.name == "slot" {
				slot = st
			} else if st != slot {
				t.Errorf("plan %q: the row engine counted %+v, the reference evaluator %+v", plan.Name, slot, st)
			}
			if pi == 0 && mode.name == "slot" {
				ref = out
			} else if out != ref {
				t.Errorf("divergence: plan %q on %s engine\nwant: %q\ngot:  %q",
					plan.Name, mode.name, ref, out)
			}
			typed, err := sweepRunTyped(p, mode.opts)
			if err != nil {
				t.Fatalf("plan %q typed consumption on %s engine: %v", plan.Name, mode.name, err)
			}
			if typed != ref {
				t.Errorf("divergence: plan %q typed consumption on %s engine\nwant: %q\ngot:  %q",
					plan.Name, mode.name, ref, typed)
			}
		}
	}
	return ref
}

// Crasher 1 — qgen seed=20240808 index=163. The Eqv.8/9 having-count
// grouping plan grouped tuples whose optional key path matched nothing
// (//usertuple without <rating>) into a phantom Null-key group that the
// nested plan's distinct-values outer side never produces, emitting an
// extra empty element. Fixed by filtering exists(key) before grouping.
func TestCrasherPhantomNullKeyGroupHavingCount(t *testing.T) {
	eng := crasherEngine(t)
	out := assertAllPlansAgree(t, eng, `
let $d1 := doc("users.xml")
for $i2 in distinct-values($d1//rating)
where count($d1//usertuple[rating = $i2]) >= 1
return <popular>{ $i2 }</popular>`)
	if strings.Contains(out, "<popular></popular>") {
		t.Fatalf("phantom empty group in output: %q", out)
	}
}

// Crasher 2 — same null-key trap through Eqv.3 (unary grouping) and the
// fused group-Ξ plan: the Q1 shape over a document where the grouping key
// is optional produced a phantom <g><k></k>... group on the grouping
// alternatives only.
func TestCrasherPhantomNullKeyGroupEqv3(t *testing.T) {
	eng := crasherEngine(t)
	out := assertAllPlansAgree(t, eng, `
let $d1 := doc("users.xml")
for $r in distinct-values($d1//rating)
return <g><k>{ $r }</k><who>{ for $u in $d1//usertuple
                              where $u/rating = $r
                              return $u/userid }</who></g>`)
	if strings.Contains(out, "<k></k>") {
		t.Fatalf("phantom empty-key group in output: %q", out)
	}
}

// Crasher 3 — qgen seed=1 index=194. The self-join-grouping plan (Sec. 5.4)
// emitted tuples group-major: Γ over the correlation key followed by µ
// re-clusters equal key values, breaking document order whenever they occur
// non-contiguously (U01,U00,U01,U00 became U01,U01,U00,U00). The paper's
// Eqv. 8 assumes ΠD(e1) precisely to avoid this; the fix replaces Γ+µ with
// the order-preserving Γself operator.
func TestCrasherSelfJoinGroupingOrder(t *testing.T) {
	eng := crasherEngine(t)
	assertAllPlansAgree(t, eng, `
let $d1 := doc("items.xml")
let $d2 := doc("items.xml")
for $a3 in $d1//itemtuple/offered_by
where some $b4 in $d2//itemtuple/offered_by satisfies $a3 = $b4
return <j>{ $a3 }</j>`)
}

// Crasher 4 — qgen seed=2 index=101. The anti-semijoin plan for a universal
// quantifier admitted outer tuples whose compared field was absent:
// ¬($q = ()) is true under general-comparison semantics, but the rewrite
// folded it to $q != (), which is false. every-over-nonempty-range with an
// absent outer field must reject the tuple.
func TestCrasherAntiJoinAbsentOuterField(t *testing.T) {
	eng := crasherEngine(t)
	out := assertAllPlansAgree(t, eng, `
let $d1 := doc("users.xml")
for $x2 in $d1//usertuple
where every $q3 in doc("users.xml")//usertuple/userid satisfies $q3 = $x2/rating
return <hit>{ $x2/userid }</hit>`)
	if out != "" {
		t.Fatalf("userids can never equal ratings; want empty output, got %q", out)
	}
}

// Crasher 5 — qgen seed=1 index=253. Same comparison-negation unsoundness
// through a different document pair (prices vs optional user rating).
func TestCrasherAntiJoinAbsentFieldPrices(t *testing.T) {
	eng := crasherEngine(t)
	out := assertAllPlansAgree(t, eng, `
let $d1 := doc("users.xml")
for $x2 in $d1//usertuple
where every $q3 in doc("prices.xml")//book/price satisfies $q3 = $x2/rating
return <hit>{ $x2/rating }</hit>`)
	if strings.Contains(out, "<hit></hit>") {
		t.Fatalf("tuple with absent rating admitted: %q", out)
	}
}

// Crasher 6 — the same fold was latent in the paper's own Q5 shape: a book
// without @year must NOT satisfy "every ... satisfies $b/@year > 1993"
// (year > 1993 on an empty sequence is false), but the folded anti-join
// predicate @year <= 1993 also evaluated false, keeping the author.
func TestCrasherEveryOverMissingAttribute(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadXMLString("bib.xml", `<bib>
  <book year="2001"><title>A</title><author>alice</author></book>
  <book><title>B</title><author>bob</author></book>
</bib>`); err != nil {
		t.Fatal(err)
	}
	out := assertAllPlansAgree(t, eng, `
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
where every $b2 in doc("bib.xml")//book[author = $a1]
      satisfies $b2/@year > 1993
return <n>{ $a1 }</n>`)
	if strings.Contains(out, "bob") {
		t.Fatalf("author of a year-less book satisfied the universal: %q", out)
	}
	if !strings.Contains(out, "alice") {
		t.Fatalf("author with year 2001 must qualify: %q", out)
	}
}

// Crasher 7 — FuzzRoundTrip testdata/fuzz/FuzzRoundTrip/9973729f18e8c4b9:
// "if(0)then<A/>" printed its implicit else branch as "()", which reparsed
// to a node printing "empty-sequence()" — the parser and the printer used
// two representations for the empty sequence.
func TestCrasherPrinterEmptySequenceFixpoint(t *testing.T) {
	assertPrintFixpoint(t, `if(0)then<A/>`)
	assertPrintFixpoint(t, `for $x in doc("d.xml")//a return if ($x/b) then $x else ()`)
}

// Crasher 8 — FuzzRoundTrip testdata/fuzz/FuzzRoundTrip/fa087f6173bbe5bd:
// the parser consumed wildcard steps ("/*") but dropped the "*", leaving an
// empty step name that printed as a bare slash ("./" — unparseable) and
// matched nothing. Wildcards now survive to the xpath layer, which always
// supported them.
func TestCrasherWildcardStepDropped(t *testing.T) {
	assertPrintFixpoint(t, `/*`)
	eng := crasherEngine(t)
	out := assertAllPlansAgree(t, eng,
		`for $c in doc("bib.xml")//book/* return <c>{ $c }</c>`)
	if !strings.Contains(out, "<title>") || !strings.Contains(out, "<price>") {
		t.Fatalf("wildcard step must match every child element: %.120q", out)
	}
}

// Crasher 9 — FuzzRoundTrip testdata/fuzz/FuzzRoundTrip/5bb39239eb390d95:
// "(0>0)*0" printed as "(0 > 0 * 0)", which reparses with the comparison
// outermost — the printer lost the precedence override because comparison
// operands did not re-parenthesize nested comparisons.
func TestCrasherPrinterPrecedenceLoss(t *testing.T) {
	assertPrintFixpoint(t, `(0>0)*0`)
	assertPrintFixpoint(t, `let $x := ((1 = 2) = 3) return $x`)
	assertPrintFixpoint(t, `for $b in doc("d.xml")//a where ($b/x > 1) + 1 > 0 return $b`)
}

// Crasher 10 — FuzzParse: a parenthesis/FLWR bomb must come back as a typed
// *ParseError from the depth guard, not a goroutine-killing stack overflow.
func TestCrasherParserDepthBomb(t *testing.T) {
	for _, src := range []string{
		strings.Repeat("(", 100000),
		strings.Repeat(`for $x in `, 20000) + "$y",
		strings.Repeat(`if (1) then `, 20000) + "0 else 0",
	} {
		_, err := xquery.ParseModule(src)
		var pe *xquery.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("depth bomb: got %T (%v), want *ParseError", err, err)
		}
	}
}

// paperEngine50 holds the use-case documents at the size the three
// quantifier reproducers below were found at (`nalsh -gen 50`).
func paperEngine50() *Engine {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(50, 2)
	return eng
}

// assertQuantJoinBound requires the plan that unnested the quantifier by the
// given equivalence to still be enumerated, and every ⋉/▷ predicate in it to
// read only attributes one of the join's two inputs produces: the fix of a
// wrong rewrite is a right rewrite, not a dropped one.
func assertQuantJoinBound(t *testing.T, eng *Engine, query, eqv string) {
	t.Helper()
	q, err := eng.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	joins := 0
	for _, plan := range q.Plans() {
		if !slices.Contains(plan.Applied, eqv) {
			continue
		}
		var walk func(o algebra.Op)
		walk = func(o algebra.Op) {
			var l, r algebra.Op
			var pred algebra.Expr
			switch j := o.(type) {
			case algebra.SemiJoin:
				l, r, pred = j.L, j.R, j.Pred
			case algebra.AntiJoin:
				l, r, pred = j.L, j.R, j.Pred
			}
			if pred != nil {
				joins++
				la, lok := l.Attrs()
				ra, rok := r.Attrs()
				fv := map[string]bool{}
				algebra.FreeVars(pred, fv)
				for v := range fv {
					if !lok || !rok || !slices.Contains(la, v) && !slices.Contains(ra, v) {
						t.Errorf("plan %q: %s reads %s, which neither input binds (%v, %v)", plan.Name, o, v, la, ra)
					}
				}
			}
			for _, c := range o.Children() {
				walk(c)
			}
		}
		walk(plan.op)
	}
	if joins == 0 {
		t.Errorf("no plan of %v unnests the quantifier by %s", planNames(q), eqv)
	}
}

// Crasher 11 — found reading core.substVar for another purpose: it listed
// the expression forms by hand, had no ArithExpr case and ended in
// "default: return e", so Eqv. 7 over Q5 with arithmetic in the satisfies
// clause kept the quantifier variable unbound in
// ▷[author_2 = a1 ∧ ¬((b2/@year + 0) > 1993)]: the cost-chosen plan returned
// 1 byte where nested returns 1 205. Expressions are substituted by method
// now (Expr.MapChildren).
func TestCrasherQuantifierOverArithmetic(t *testing.T) {
	eng := paperEngine50()
	query := strings.Replace(QueryQ5Universal, "$b2/@year > 1993", "$b2/@year + 0 > 1993", 1)
	if out, want := assertAllPlansAgree(t, eng, query), assertAllPlansAgree(t, eng, QueryQ5Universal); out != want || out == "" {
		t.Errorf("@year + 0 > 1993 gives %d bytes, @year > 1993 gives %d", len(out), len(want))
	}
	assertQuantJoinBound(t, eng, query, "Eqv.7")
}

// Crasher 12 — the same hand-kept list had no CondExpr case: Eqv. 6 over Q3
// with a conditional in the satisfies clause left t2 unbound in the ⋉
// predicate, 1 byte against nested's 1 256.
func TestCrasherQuantifierOverConditional(t *testing.T) {
	eng := paperEngine50()
	query := strings.Replace(QueryQ3Existential, "satisfies $t1 = $t2",
		"satisfies (if ($t2 = $t1) then true() else false())", 1)
	if out, want := assertAllPlansAgree(t, eng, query), assertAllPlansAgree(t, eng, QueryQ3Existential); out != want || out == "" {
		t.Errorf("if ($t2 = $t1) … gives %d bytes, $t1 = $t2 gives %d", len(out), len(want))
	}
	assertQuantJoinBound(t, eng, query, "Eqv.6")
}

// Crasher 13 — normalize.soleVarPath did not look inside arithmetic, so the
// Sec. 5.5 narrowing rebound $b2 to its @year while $b2/price + 0 still read
// the book: 1 byte on every plan and both evaluators — all plans share the
// normalized text, so the differential oracle is blind to it — against 1 654
// for the same query without "+ 0". Pinned as a semantic pair.
func TestCrasherNarrowingPastArithmetic(t *testing.T) {
	eng := paperEngine50()
	const query = `
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
where some $b2 in doc("bib.xml")//book[author = $a1]
      satisfies $b2/@year > 1993 and $b2/price + 0 > 0
return <new-author>{ $a1 }</new-author>`
	plain := strings.Replace(query, "$b2/price + 0 > 0", "$b2/price > 0", 1)
	if out, want := assertAllPlansAgree(t, eng, query), assertAllPlansAgree(t, eng, plain); out != want || out == "" {
		t.Errorf("price + 0 > 0 gives %d bytes, price > 0 gives %d", len(out), len(want))
	}
}

// Crasher 14 — FuzzRoundTrip seed-quant-cond, the first seed with a
// quantifier over a parenthesised FLWR (Q3's shape): the printer writes the
// range without the parentheses — legal XQuery, a range is an ExprSingle —
// and the parser, which read a range as an or-expression, refused its own
// printer's text ("unexpected keyword let"), Query.Normalized of every
// normalized quantifier included.
func TestCrasherQuantifierRangeIsExprSingle(t *testing.T) {
	assertPrintFixpoint(t, QueryQ3Existential)
	assertPrintFixpoint(t, `some $x in for $y in doc("d.xml")//a return $y, $z in if ($x) then $x else () satisfies $x = $z`)
	eng := crasherEngine(t)
	q, err := eng.Compile(QueryQ5Universal)
	if err != nil {
		t.Fatal(err)
	}
	assertPrintFixpoint(t, q.Normalized)
}

// assertPrintFixpoint parses src, reprints, reparses, and requires the
// printer to be a fixpoint — FuzzRoundTrip's oracle on one pinned input.
func assertPrintFixpoint(t *testing.T, src string) {
	t.Helper()
	m, err := xquery.ParseModule(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	printed := m.String()
	m2, err := xquery.ParseModule(printed)
	if err != nil {
		t.Fatalf("reprint of %q does not reparse: %v (printed %q)", src, err, printed)
	}
	if again := m2.String(); again != printed {
		t.Fatalf("printer not a fixpoint for %q: %q then %q", src, printed, again)
	}
}

// A quantifier range whose block rebinds the name of an outer variable,
// found by FuzzCompile (its input is the corpus file
// seed-range-rebinds-outer-name). Eqvs. 6 and 7 joined e1 with a range that
// bound the same attribute, so e1 ◦ e2 could not be typed and the semijoin
// and anti-semijoin plans failed with an internal error. Both equivalences
// now require A(e1) ∩ A(e2) = ∅.
func TestCrasherRangeRebindsOuterName(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadXMLString("bib.xml", `<bib><book year="1990"/><book year="2000"/></bib>`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ query, want string }{
		{`for $b in doc("bib.xml")//book
		  where some $x in (let $b := doc("bib.xml")//book return $b) satisfies $x/@year > 1995
		  return <r>{ $b/@year }</r>`, `<r>1990</r><r>2000</r>`},
		{`for $b in doc("bib.xml")//book
		  where every $x in (let $b := doc("bib.xml")//book return $b) satisfies $x/@year > 1995
		  return <r>{ $b/@year }</r>`, ``},
	} {
		if got := assertAllPlansAgree(t, eng, c.query); got != c.want {
			t.Errorf("every plan answers %q, want %q", got, c.want)
		}
	}
}
