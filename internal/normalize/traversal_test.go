package normalize

import (
	"strings"
	"testing"

	"nalquery/internal/xquery"
)

func parse(t *testing.T, src string) xquery.Expr {
	t.Helper()
	e, err := xquery.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

// TestTraversalsRespectScope pins the binder cases the substituting and
// searching traversals keep — everything else they reach by method: a
// variable bound again by a quantifier or by a for/let/at clause is a
// different variable from there on, and up to there it is not.
func TestTraversalsRespectScope(t *testing.T) {
	to := xquery.VarRef{Name: "z"}
	for _, c := range []struct{ src, want string }{
		{`$x + f($x, <a b="{ $x }">{ $x }</a>)`, `($z + f($z, <a b="{ $z }">{ $z }</a>))`},
		{`$y/a[$x = .]/b[if ($x) then 1 else $x]`, `$y/a[$z = .]/b[if ($z) then 1 else $z]`},
		{`some $x in $x/a satisfies $x = 1`, `some $x in $z/a satisfies $x = 1`},
		{`some $y in $x/a satisfies $x = $y`, `some $y in $z/a satisfies $z = $y`},
		{`for $a in $x, $x in $x/a, $b in $x where $x return $x`, `for $a in $z, $x in $z/a, $b in $x where $x return $x`},
		{`for $a at $x in $x return $x`, `for $a at $x in $z return $x`},
		{`let $a := $x order by $x return (let $x := $a return $x) = $x`, `let $a := $z order by $z return (let $x := $a return $x) = $z`},
	} {
		e := parse(t, c.src)
		if got := subst(e, "x", to).String(); got != parse(t, c.want).String() {
			t.Errorf("subst x→z in %s\n got %s\nwant %s", c.src, got, c.want)
		}
		if !references(e, "x") {
			t.Errorf("references: $x is free in %s", c.src)
		}
		if references(subst(e, "x", to), "x") {
			t.Errorf("references: $x still free after subst in %s", c.src)
		}
	}
	for _, src := range []string{
		`some $x in $y satisfies $x`,
		`for $x in $y return $x`,
		`for $a at $x in $y where $x return <a>{ $x }</a>`,
		`let $x := 1 return $y/a[$x]`,
	} {
		if references(parse(t, src), "x") {
			t.Errorf("references: $x is bound in %s", src)
		}
	}
}

// TestSoleVarPathSeesEveryForm: the Sec. 5.5 narrowing may rebind the
// quantifier variable to $x/@a only when no other use of $x remains —
// wherever in the satisfies clause it hides.
func TestSoleVarPathSeesEveryForm(t *testing.T) {
	for src, want := range map[string]bool{
		`$x/@a > 1`:                                                     true,
		`$x/@a + 0 > 1 and not($x/@a = 3)`:                              true,
		`if ($x/@a > 1) then true() else false()`:                       true,
		`$x/@a > 1 and $x/b + 0 > 1`:                                    false,
		`$x/@a > 1 and (if ($x) then 1 else 2)`:                         false,
		`$x/@a > 1 and (some $y in $x/c satisfies $y = 1)`:              false,
		`$x/@a > 1 and (some $y in $z satisfies $y = $x/@a)`:            true,
		`$x/@a > 1 and (some $x in $z satisfies $x/@a = 1)`:             false,
		`$x/@a > 1 and count(for $x in $z return $x/@a) > 1`:            false,
		`$x/@a > 1 and count(for $y in $z where $y = $x return $y) > 1`: false,
		`$y/b[$x/@a = 1] = 2`:                                           true,
		`$y/b[$x/c = 1] = $x/@a`:                                        false,
	} {
		e := parse(t, src)
		_, ok := soleVarPath(e, "x")
		if ok != want {
			t.Errorf("soleVarPath(%s) = %v, want %v", src, ok, want)
		}
		if got := replaceVarPath(e, "x").String(); ok && strings.Contains(got, "$x/") {
			t.Errorf("replaceVarPath(%s) = %s", src, got)
		}
	}
}
