package normalize

import (
	"strings"
	"testing"

	"nalquery/internal/xquery"
)

// Tests for the conjunctive-where splitting that keeps quantifier
// conjuncts matchable by Eqvs. 6/7.

func whereClauses(t *testing.T, q string) []xquery.WhereClause {
	t.Helper()
	ast, err := xquery.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := NormalizeWithCatalog(ast, nil).(xquery.FLWR)
	if !ok {
		t.Fatalf("normalized top is not FLWR")
	}
	var out []xquery.WhereClause
	for _, c := range f.Clauses {
		if w, ok := c.(xquery.WhereClause); ok {
			out = append(out, w)
		}
	}
	return out
}

// TestWhereSplitQuantifierConjunction: a quantifier ∧ plain-predicate where
// splits into two clauses, plain first.
func TestWhereSplitQuantifierConjunction(t *testing.T) {
	ws := whereClauses(t, `
let $d := doc("bib.xml")
for $t in $d//book/title
where (some $x in $d//entry/title satisfies $t = $x) and starts-with(string($t), "A")
return $t`)
	if len(ws) != 2 {
		t.Fatalf("got %d where clauses, want 2 (split)", len(ws))
	}
	if _, isQuant := ws[0].Cond.(xquery.Quant); isQuant {
		t.Errorf("plain conjunct must come first; first clause is %T", ws[0].Cond)
	}
	if _, isQuant := ws[1].Cond.(xquery.Quant); !isQuant {
		t.Errorf("quantifier conjunct must come last; last clause is %T", ws[1].Cond)
	}
}

// TestWhereNoSplitWithoutQuantifier: plain conjunctions stay in one clause,
// one σ with a conjunctive predicate.
func TestWhereNoSplitWithoutQuantifier(t *testing.T) {
	ws := whereClauses(t, `
let $d := doc("bib.xml")
for $b in $d//book
where $b/@year > 1990 and starts-with(string($b/title), "A")
return $b`)
	if len(ws) != 1 {
		t.Fatalf("got %d where clauses, want 1 (no quantifier, no split)", len(ws))
	}
}

// TestWhereSplitThreeConjuncts: several plain conjuncts each become their
// own clause when a quantifier forces the split.
func TestWhereSplitThreeConjuncts(t *testing.T) {
	ws := whereClauses(t, `
let $d := doc("bib.xml")
for $t in $d//book/title
where string-length(string($t)) > 2
  and (every $x in $d//entry/title satisfies $t = $x)
  and starts-with(string($t), "A")
return $t`)
	if len(ws) != 3 {
		t.Fatalf("got %d where clauses, want 3", len(ws))
	}
	quants := 0
	for _, w := range ws {
		if _, ok := w.Cond.(xquery.Quant); ok {
			quants++
		}
	}
	if quants != 1 {
		t.Errorf("got %d quantifier clauses, want 1", quants)
	}
	if _, ok := ws[len(ws)-1].Cond.(xquery.Quant); !ok {
		t.Errorf("quantifier clause must be last")
	}
}

// TestAdjacentWhereClausesPlainFirst: across a run of adjacent where clauses
// the plain ones move ahead of the quantified ones, each kind keeping its
// order; no clause is merged into another, and none crosses a let.
func TestAdjacentWhereClausesPlainFirst(t *testing.T) {
	const (
		byTitle = `some $r in doc("reviews.xml")//entry satisfies $r/title = $b/title`
		byPrice = `some $s in doc("reviews.xml")//entry satisfies $s/price = $b/price`
	)
	for _, c := range []struct{ name, clauses, want string }{
		{"quantified then plain", "where " + byTitle + " where $b/@year > 1990", "1990,∃title"},
		{"two plain", "where $b/@year > 1990 where $b/@year < 2000", "1990,2000"},
		{"two quantified", "where " + byTitle + " where " + byPrice, "∃title,∃price"},
		{"plain after a let", "where " + byTitle + " let $y := $b/@year where $y > 1990", "∃title,let,1990"},
	} {
		f := norm(t, `for $b in doc("bib.xml")//book `+c.clauses+` return $b`)
		var got []string
		for _, cl := range f.Clauses {
			switch w := cl.(type) {
			case xquery.LetClause:
				got = append(got, "let")
			case xquery.WhereClause:
				s := w.Cond.String()
				switch {
				case containsQuant(w.Cond) && strings.Contains(s, "title"):
					got = append(got, "∃title")
				case containsQuant(w.Cond):
					got = append(got, "∃price")
				case strings.Contains(s, "1990"):
					got = append(got, "1990")
				default:
					got = append(got, "2000")
				}
			}
		}
		if strings.Join(got, ",") != c.want {
			t.Errorf("%s: let and where clauses are %s, want %s\n%s", c.name, strings.Join(got, ","), c.want, f)
		}
	}
}
