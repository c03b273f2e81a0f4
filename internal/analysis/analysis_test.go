package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nalquery/internal/analysis/vettest"
)

// metaFlags point opcomplete at the fixture's miniature algebra and pin
// its five dispatch surfaces in two packages (the real -require default
// pins two: the engine's plan walkers are Op.MapChildren, not switches, and
// the schema rule builds the iterator).
var metaFlags = []string{
	"-opcomplete.oppkg=fixture/engine",
	"-opcomplete.require=fixture/engine:rowiter+schema,fixture/planner:cost+rewrite+sec2",
}

func TestOpcompleteCleanOnCompleteSurfaces(t *testing.T) {
	vettest.RunAndCheck(t, "testdata/opcomplete/meta", metaFlags...)
}

func TestOpcompleteViolations(t *testing.T) {
	vettest.RunAndCheck(t, "testdata/opcomplete/bad",
		"-opcomplete.oppkg=fixture/engine",
		"-opcomplete.require=fixture/engine:dispatch+ghost",
	)
}

// TestOpcompleteCatchesRemovedOperator is the meta-test of the issue's
// acceptance criteria: delete one operator's case clause from a copy of
// every dispatch surface and assert opcomplete names each broken surface.
func TestOpcompleteCatchesRemovedOperator(t *testing.T) {
	dir := vettest.CopyFixture(t, "testdata/opcomplete/meta")

	// Strip every "case GroupSelf:"/"case engine.GroupSelf:" clause (the
	// case line plus its single return statement) from both fixture files.
	caseRe := regexp.MustCompile(`(?m)^\tcase (?:engine\.)?GroupSelf:\n\t\treturn [^\n]+\n`)
	for _, rel := range []string{"engine/engine.go", "planner/planner.go"} {
		path := filepath.Join(dir, rel)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mutated := caseRe.ReplaceAll(src, nil)
		if string(mutated) == string(src) {
			t.Fatalf("mutation did not remove any GroupSelf case from %s", rel)
		}
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	diags := vettest.Run(t, dir, metaFlags...)

	surfaces := map[string]bool{}
	for _, d := range diags {
		if d.Analyzer != "opcomplete" {
			t.Errorf("unexpected %s finding after mutation: %s", d.Analyzer, d)
			continue
		}
		if !strings.Contains(d.Message, "GroupSelf") {
			t.Errorf("opcomplete finding does not name the removed operator: %s", d)
			continue
		}
		m := regexp.MustCompile(`surface "([a-z0-9]+)"`).FindStringSubmatch(d.Message)
		if m == nil {
			t.Errorf("opcomplete finding does not name its surface: %s", d)
			continue
		}
		if surfaces[m[1]] {
			t.Errorf("surface %q reported twice", m[1])
		}
		surfaces[m[1]] = true
	}
	for _, want := range []string{"rowiter", "schema", "cost", "rewrite", "sec2"} {
		if !surfaces[want] {
			t.Errorf("removing the GroupSelf case was not reported for surface %q (diags: %v)", want, diags)
		}
	}
	if len(diags) != 5 {
		t.Errorf("want exactly 5 findings (one per surface), got %d: %v", len(diags), diags)
	}
}

func TestPanicDiscipline(t *testing.T) {
	vettest.RunAndCheck(t, "testdata/panicdiscipline",
		"-panicdiscipline.pkgs=fixture/engine")
}

func TestBudgetCharge(t *testing.T) {
	vettest.RunAndCheck(t, "testdata/budgetcharge",
		"-budgetcharge.pkgs=fixture/engine")
}

func TestMustParse(t *testing.T) {
	vettest.RunAndCheck(t, "testdata/mustparse",
		"-mustparse.allowpkgs=fixture/experiments")
}

func TestCtxPoll(t *testing.T) {
	vettest.RunAndCheck(t, "testdata/ctxpoll")
}
