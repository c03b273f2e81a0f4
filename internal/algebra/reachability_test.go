package algebra

import (
	"go/parser"
	"go/token"
	"maps"
	"strings"
	"testing"
)

// definitionalOnly are the Sec. 2 operators the engine keeps although no
// compiled plan holds them: the paper's algebra defines them and the
// equivalence property tests of internal/core run on them.
var definitionalOnly = map[string]bool{
	// ΠD A′:A appears in the equivalences' side conditions (e1 = ΠD(…)),
	// which the rewriter decides from schema facts without building it.
	"ProjectDistinct": true,
	// µ: the plans the rewriter derives unnest with µD only.
	"Unnest": true,
}

// TestSchemaSurfaceExemptsTheDefinitionalOperators: the exempt= list of the
// //nal:opswitch schema surface — the operators without a rule that types
// them and builds their iterator — is exactly definitionalOnly. That every
// operator with a rule occurs in a compiled plan is the root package's
// TestEveryNativeOperatorIsReachable, a census of compiled plans.
func TestSchemaSurfaceExemptsTheDefinitionalOperators(t *testing.T) {
	fset := token.NewFileSet()
	src, err := parser.ParseFile(fset, "schema.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	exempt := map[string]bool{}
	for _, cg := range src.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//nal:opswitch schema")
			if !ok {
				continue
			}
			found = true
			if list, ok := strings.CutPrefix(strings.TrimSpace(rest), "exempt="); ok {
				for _, name := range strings.Split(list, ",") {
					exempt[name] = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no //nal:opswitch schema marker in schema.go")
	}
	if !maps.Equal(exempt, definitionalOnly) {
		t.Errorf("the schema surface exempts %v; the definitional-only operators are %v", exempt, definitionalOnly)
	}
}
