package nalquery

import (
	"errors"
	"strings"
	"testing"
)

// TestCompileErrorTaxonomy pins the compile-path error contract family by
// family: every rejection from parse, normalize, or translate must be
// errors.As-able to exactly one public typed error — *ParseError with a
// valid source position for syntax, *TranslateError (matching ErrTranslate)
// for well-formed queries outside the supported subset. Callers switch on
// these types (the HTTP layer maps them to status codes, the CLIs to caret
// diagnostics), so an untyped rejection is an API break.
func TestCompileErrorTaxonomy(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(2, 2)

	cases := []struct {
		name  string
		query string
		kind  string // "parse" or "translate"
	}{
		// --- parse family: malformed surface syntax ---
		{"empty input", ``, "parse"},
		{"truncated flwr", `for $x in`, "parse"},
		{"missing return", `for $x in doc("bib.xml")//book`, "parse"},
		{"bad keyword", `for $x inn doc("bib.xml")//book return $x`, "parse"},
		{"unterminated string", `let $s := "oops`, "parse"},
		{"unterminated constructor", `for $x in doc("b")//a return <t>{ $x }`, "parse"},
		{"mismatched tags", `for $x in doc("b")//a return <t>{ $x }</u>`, "parse"},
		{"trailing input", `for $x in doc("b")//a return $x satisfies`, "parse"},
		{"duplicate external", `declare variable $v external; declare variable $v external; for $x in doc("b")//a return $x`, "parse"},
		{"missing step name", `for $x in doc("b")// return $x`, "parse"},
		{"paren bomb", strings.Repeat("(", 50000), "parse"},
		{"flwr bomb", strings.Repeat("for $x in ", 10000) + "$y", "parse"},
		{"binary junk", "\x00\xff\x01\x02", "parse"},

		// --- translate family: parses, but outside the algebra's subset ---
		{"bare arithmetic", `1 + 1`, "translate"},
		{"bare conditional", `if (1) then 2 else 3`, "translate"},
		{"bare path", `/bib/book`, "translate"},
		{"bare string", `"hello"`, "translate"},
		{"bare quantifier", `some $x in doc("b")//a satisfies $x = 1`, "translate"},
		{"unknown builtin", `for $b in doc("bib.xml")//book where uppercase($b/title) = "X" return $b/title`, "translate"},
		{"builtin arity", `for $b in doc("bib.xml")//book where true(1, 2, 3) return $b/title`, "translate"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := eng.Compile(tc.query)
			if err == nil {
				t.Fatalf("compile accepted %q", tc.query)
			}
			var pe *ParseError
			var te *TranslateError
			switch tc.kind {
			case "parse":
				if !errors.As(err, &pe) {
					t.Fatalf("want *ParseError, got %T: %v", err, err)
				}
				if pe.Line < 1 || pe.Col < 1 {
					t.Fatalf("invalid error position %d:%d", pe.Line, pe.Col)
				}
				if errors.As(err, &te) {
					t.Fatalf("error matches both parse and translate: %v", err)
				}
			case "translate":
				if !errors.As(err, &te) {
					t.Fatalf("want *TranslateError, got %T: %v", err, err)
				}
				if !errors.Is(err, ErrTranslate) {
					t.Fatalf("*TranslateError not Is-matchable to ErrTranslate: %v", err)
				}
				if errors.As(err, &pe) {
					t.Fatalf("error matches both parse and translate: %v", err)
				}
			}
			if errors.Is(err, ErrInternal) {
				t.Fatalf("rejection leaked ErrInternal: %v", err)
			}
		})
	}
}
