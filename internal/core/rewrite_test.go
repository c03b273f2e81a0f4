package core

import (
	"strings"
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/dom"
	"nalquery/internal/normalize"
	"nalquery/internal/schema"
	"nalquery/internal/translate"
	"nalquery/internal/value"
	"nalquery/internal/xquery"
)

func compileQuery(t *testing.T, src string) (*Rewriter, *translate.Result) {
	t.Helper()
	ast, err := xquery.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cat := schema.UseCases()
	res, err := translate.TranslateParams(normalize.NormalizeWithCatalog(ast, cat), cat, nil)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return NewRewriter(res, cat), res
}

func altNames(alts []PlanAlt) []string {
	var out []string
	for _, a := range alts {
		out = append(out, a.Name)
	}
	return out
}

func hasAlt(alts []PlanAlt, name string) bool {
	for _, a := range alts {
		if a.Name == name {
			return true
		}
	}
	return false
}

const q1Src = `
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return <author><name>{ $a1 }</name>
  { let $d2 := doc("bib.xml")
    for $b2 in $d2//book[$a1 = author]
    return $b2/title }</author>`

func TestAlternativesQ1(t *testing.T) {
	rw, res := compileQuery(t, q1Src)
	alts := rw.Alternatives(res.Plan)
	for _, want := range []string{"nested", "outer join", "grouping", "group Ξ"} {
		if !hasAlt(alts, want) {
			t.Errorf("missing %q in %v", want, altNames(alts))
		}
	}
	// The grouping plan must be justified by Eqv. 5 (member correlation).
	for _, a := range alts {
		if a.Name == "grouping" && !contains(a.Applied, "Eqv.5") {
			t.Errorf("grouping plan applied %v, want Eqv.5", a.Applied)
		}
		if a.Name == "outer join" && !contains(a.Applied, "Eqv.4") {
			t.Errorf("outer join plan applied %v, want Eqv.4", a.Applied)
		}
	}
}

func TestEqv5RejectedOnDBLP(t *testing.T) {
	src := strings.ReplaceAll(q1Src, "bib.xml", "dblp.xml")
	rw, res := compileQuery(t, src)
	alts := rw.Alternatives(res.Plan)
	if hasAlt(alts, "grouping") || hasAlt(alts, "group Ξ") {
		t.Fatalf("Eqv.5 must be rejected on DBLP: %v", altNames(alts))
	}
	if !hasAlt(alts, "outer join") {
		t.Fatalf("outer join must remain admissible: %v", altNames(alts))
	}
}

func TestEqv3RequiresDistinct(t *testing.T) {
	// Same shape as Q6 but iterating raw itemnos (not distinct-values):
	// Eqv. 3 must not fire; Eqv. 2 (outer join) must.
	src := `
let $d1 := document("bids.xml")
for $i1 in $d1//itemno
let $c1 := count(let $d2 := document("bids.xml")
                 for $i2 in $d2//bidtuple/itemno
                 where $i1 = $i2
                 return $i2)
where $c1 >= 3
return <p>{ $i1 }</p>`
	rw, res := compileQuery(t, src)
	alts := rw.Alternatives(res.Plan)
	for _, a := range alts {
		if contains(a.Applied, "Eqv.3") {
			t.Fatalf("Eqv.3 requires a duplicate-free e1: %v", a.Applied)
		}
	}
	if !hasAlt(alts, "outer join") {
		t.Fatalf("Eqv.2 must still apply: %v", altNames(alts))
	}
}

func TestEqv3RequiresValueCoverage(t *testing.T) {
	// Correlating reviews titles with bib titles: different documents, so
	// e1 ≠ ΠD(ΠA2(e2)) and Eqv. 3 must not fire.
	src := `
let $d1 := document("reviews.xml")
for $t1 in distinct-values($d1//entry/title)
let $c1 := count(let $d2 := document("bib.xml")
                 for $t2 in $d2//book/title
                 where $t1 = $t2
                 return $t2)
where $c1 >= 1
return <t>{ $t1 }</t>`
	rw, res := compileQuery(t, src)
	alts := rw.Alternatives(res.Plan)
	for _, a := range alts {
		if contains(a.Applied, "Eqv.3") {
			t.Fatalf("Eqv.3 must not fire across documents: %v", a.Applied)
		}
	}
}

func TestEqv1FiresForThetaCorrelation(t *testing.T) {
	// A non-equality correlation: per item, count strictly cheaper bids.
	src := `
let $d1 := document("bids.xml")
for $a1 in distinct-values($d1//bid)
let $c1 := count(let $d2 := document("bids.xml")
                 for $b2 in $d2//bidtuple/bid
                 where $b2 < $a1
                 return $b2)
return <r n="{ $a1 }">{ $c1 }</r>`
	rw, res := compileQuery(t, src)
	// Under the general strategy only Eqv. 1 applies (Eqv. 2 requires '=');
	// under the grouping strategy Eqv. 3 also applies — the paper states it
	// for arbitrary θ, and e1 here is duplicate-free and value-covering.
	general, rulesGeneral := rw.Rewrite(res.Plan, StrategyGeneral)
	if !contains(rulesGeneral, "Eqv.1") || contains(rulesGeneral, "Eqv.2") {
		t.Fatalf("general strategy must use Eqv.1 for θ-correlations: %v", rulesGeneral)
	}
	if !strings.Contains(algebra.Explain(general), "Γ[") {
		t.Fatalf("Eqv.1 plan lacks binary Γ:\n%s", algebra.Explain(general))
	}
	_, rulesGrouping := rw.Rewrite(res.Plan, StrategyGrouping)
	if !contains(rulesGrouping, "Eqv.3") {
		t.Fatalf("grouping strategy must use Eqv.3 (θ general): %v", rulesGrouping)
	}
}

func TestEqv6And8ForQ4(t *testing.T) {
	src := `
let $d1 := doc("bib.xml")
for $b1 in $d1//book,
    $a1 in $b1/author
where exists(for $b2 in $d1//book, $a2 in $b2/author
             where contains($a2, "Suciu") and $b1 = $b2
             return $b2)
return <book>{ $a1 }</book>`
	rw, res := compileQuery(t, src)
	alts := rw.Alternatives(res.Plan)
	if !hasAlt(alts, "semijoin") || !hasAlt(alts, "grouping") {
		t.Fatalf("Q4 alternatives: %v", altNames(alts))
	}
	for _, a := range alts {
		if a.Name == "grouping" && !contains(a.Applied, "self-join-grouping") {
			t.Errorf("Q4 grouping must come from the self-join rewrite: %v", a.Applied)
		}
	}
}

func TestEqv7And9ForQ5(t *testing.T) {
	src := `
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
where every $b2 in doc("bib.xml")//book[author = $a1]
      satisfies $b2/@year > 1993
return <n>{ $a1 }</n>`
	rw, res := compileQuery(t, src)
	alts := rw.Alternatives(res.Plan)
	if !hasAlt(alts, "anti-semijoin") {
		t.Fatalf("missing anti-semijoin: %v", altNames(alts))
	}
	var grouping *PlanAlt
	for i := range alts {
		if alts[i].Name == "grouping" {
			grouping = &alts[i]
		}
	}
	if grouping == nil || !contains(grouping.Applied, "Eqv.9") {
		t.Fatalf("Q5 grouping must come from Eqv.9: %v", altNames(alts))
	}
	// The Eqv.9 plan filters on count = 0.
	if !strings.Contains(algebra.Explain(grouping.Op), "= 0") {
		t.Fatalf("Eqv.9 plan:\n%s", algebra.Explain(grouping.Op))
	}
}

// TestResidualPushdown: Sec. 5.5's micro-rewrite fires on the universal
// quantifier — the second part of the anti-join predicate moves into the
// join's inner operand.
func TestResidualPushdown(t *testing.T) {
	src := `
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
where every $b2 in doc("bib.xml")//book[author = $a1]
      satisfies $b2/@year > 1993
return <n>{ $a1 }</n>`
	rw, res := compileQuery(t, src)
	if _, rules := rw.Rewrite(res.Plan, StrategyGeneral); !contains(rules, "pushdown") {
		t.Fatalf("residual pushdown did not fire: %v", rules)
	}
}

func TestRewrittenPlansEvaluateIdentically(t *testing.T) {
	// Plan-level check on a document the root tests do not use.
	docSrc := `<bids>
<bidtuple><userid>U1</userid><itemno>7</itemno><bid>10</bid><biddate>d</biddate></bidtuple>
<bidtuple><userid>U2</userid><itemno>7</itemno><bid>20</bid><biddate>d</biddate></bidtuple>
<bidtuple><userid>U3</userid><itemno>9</itemno><bid>30</bid><biddate>d</biddate></bidtuple>
</bids>`
	docs := map[string]*dom.Document{"bids.xml": dom.MustParseString(docSrc, "bids.xml")}
	src := `
let $d1 := document("bids.xml")
for $i1 in distinct-values($d1//itemno)
let $c1 := count(let $d2 := document("bids.xml")
                 for $i2 in $d2//bidtuple/itemno
                 where $i1 = $i2
                 return $i2)
return <i n="{ $i1 }">{ $c1 }</i>`
	rw, res := compileQuery(t, src)
	alts := rw.Alternatives(res.Plan)
	if len(alts) < 3 {
		t.Fatalf("expected nested + outer join + grouping, got %v", altNames(alts))
	}
	var ref string
	for _, a := range alts {
		ctx := algebra.NewCtx(docs)
		a.Op.Eval(ctx, nil)
		if ref == "" {
			ref = ctx.OutString()
			if ref != `<i n="7">2</i><i n="9">1</i>` {
				t.Fatalf("nested result wrong: %s", ref)
			}
			continue
		}
		if ctx.OutString() != ref {
			t.Errorf("plan %s output %q != %q\n%s", a.Name, ctx.OutString(), ref, algebra.Explain(a.Op))
		}
	}
}

func TestValidateRejectsAttributeLoss(t *testing.T) {
	// A Ξ referencing an attribute its input does not provide.
	bad := algebra.XiSimple{
		In:   algebra.Project{In: algebra.Singleton{}, Names: []string{"x"}},
		Cmds: []algebra.Command{algebra.ExprCmd(algebra.Var{Name: "y"})},
	}
	if Validate(bad) {
		t.Fatalf("Validate must reject command over missing attribute")
	}
	good := algebra.XiSimple{
		In:   algebra.Project{In: algebra.Singleton{}, Names: []string{"x"}},
		Cmds: []algebra.Command{algebra.ExprCmd(algebra.Var{Name: "x"})},
	}
	if !Validate(good) {
		t.Fatalf("Validate must accept in-schema commands")
	}
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[Strategy]string{
		StrategyNested: "nested", StrategyGeneral: "general",
		StrategyGrouping: "grouping", StrategyGroupXi: "group-xi",
	} {
		if s.String() != want {
			t.Errorf("Strategy(%d).String() = %q", s, s.String())
		}
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// TestSubstVarAndConjunctHelpers pins what the rewrites rely on of the shared
// expression helpers: substVar reaches every form by method, leaves a
// quantifier's own variable alone and does not enter a nested plan (the
// caller finds what stayed with FreeVars); no predicate has no conjuncts,
// constantly true ones are dropped, and no conjuncts wrap into no selection.
func TestSubstVarAndConjunctHelpers(t *testing.T) {
	x := algebra.Var{Name: "x"}
	year := algebra.PathOf{Input: x}
	in := algebra.AndExpr{
		L: algebra.CondExpr{If: algebra.CmpExpr{L: algebra.ArithExpr{L: year, R: algebra.ConstVal{}, Op: '+'}, R: x},
			Then: algebra.InExpr{Item: x, Seq: x}, Else: algebra.NotExpr{E: algebra.BindTuples{E: x}}},
		R: algebra.OrExpr{L: algebra.Call{Fn: "f", Args: []algebra.Expr{x, algebra.Param{Name: "p"}}},
			R: algebra.ExistsQ{Var: "y", Range: algebra.Singleton{}, Pred: x}},
	}
	fv := map[string]bool{}
	if algebra.FreeVars(substVar(in, "x", "x'"), fv); fv["x"] || !fv["x'"] {
		t.Errorf("substVar left x free: %v in %s", fv, substVar(in, "x", "x'"))
	}
	shadow := algebra.ForallQ{Var: "x", Range: algebra.Singleton{}, Pred: x}
	if got := substVar(shadow, "x", "x'"); got.String() != shadow.String() {
		t.Errorf("substVar renamed a bound variable: %s", got)
	}
	nested := algebra.NestedApply{F: algebra.SFCount{}, Plan: algebra.Select{In: algebra.Singleton{}, Pred: x}}
	fv = map[string]bool{}
	if algebra.FreeVars(substVar(nested, "x", "x'"), fv); !fv["x"] {
		t.Errorf("substVar is not expected to enter a nested plan: free %v", fv)
	}

	yes := algebra.ConstVal{V: value.Bool(true)}
	if got := effectiveConjuncts(nil); got != nil {
		t.Errorf("effectiveConjuncts(nil) = %v", got)
	}
	p := algebra.AndExpr{L: algebra.Call{Fn: "true"}, R: algebra.AndExpr{L: x, R: yes}}
	if got := effectiveConjuncts(p); len(got) != 1 || got[0] != algebra.Expr(x) {
		t.Errorf("effectiveConjuncts(%s) = %v, want [x]", p, got)
	}
	if got := algebra.AndOf(effectiveConjuncts(yes)); got != nil {
		t.Errorf("a constantly true predicate leaves %v, want no predicate", got)
	}
	if got := wrapSelect(algebra.Singleton{}, nil); got != algebra.Op(algebra.Singleton{}) {
		t.Errorf("wrapSelect with no conjuncts = %s", got)
	}
}
