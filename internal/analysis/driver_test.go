package analysis_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nalquery/internal/analysis/vettest"
)

// runTool invokes the built nalvet binary directly, the way the go
// command does. It fails the test if the tool panicked, or if it was given
// a unit written by unit and did not leave the unit's VetxOutput behind.
func runTool(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	var vetx string
	if n := len(args); n > 0 && filepath.Base(args[n-1]) == "vet.cfg" {
		vetx = filepath.Join(filepath.Dir(args[n-1]), "vet.out")
	}
	cmd := exec.Command(vettest.Tool(t), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running nalvet %v: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	if s := errb.String(); strings.Contains(s, "panic:") || strings.Contains(s, "goroutine ") {
		t.Fatalf("nalvet %v panicked:\n%s", args, s)
	}
	if _, err := os.Stat(vetx); vetx != "" && err != nil {
		t.Errorf("nalvet %v: VetxOutput was not written: %v", args, err)
	}
	return out.String(), errb.String(), exit
}

// unit writes src as the single file of package fixture/app plus a vet.cfg
// for it (fields overrides the defaults) and returns the config's path.
func unit(t *testing.T, src string, fields map[string]any) string {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "app.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := map[string]any{
		"ID":         "fixture/app",
		"Compiler":   "gc",
		"ImportPath": "fixture/app",
		"GoFiles":    []string{file},
		"VetxOutput": filepath.Join(dir, "vet.out"),
	}
	for k, v := range fields {
		cfg[k] = v
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return cfgPath
}

// violating trips mustparse: a Must* parser called outside tests.
const violating = `package app

func MustParse(s string) string { return s }

var X = MustParse("x")
`

func TestDriverRejectsBadConfig(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.cfg")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	noFiles := unit(t, violating, map[string]any{"GoFiles": []string{}})
	badCompiler := unit(t, violating, map[string]any{"Compiler": "nosuch"})

	for _, tc := range []struct{ name, cfg, want string }{
		{"missing", filepath.Join(dir, "absent.cfg"), "no such file"},
		{"malformed", garbage, "cannot decode vet config"},
		{"no files", noFiles, "package has no files"},
		{"unknown compiler", badCompiler, "unsupported compiler"},
	} {
		stdout, stderr, exit := runTool(t, tc.cfg)
		if exit != 1 || stdout != "" || !strings.HasPrefix(stderr, "nalvet: ") || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: exit=%d stdout=%q stderr=%q; want exit 1 and a nalvet: message containing %q",
				tc.name, exit, stdout, stderr, tc.want)
		}
	}
}

func TestDriverTypecheckFailure(t *testing.T) {
	const broken = "package app\n\nvar X int = \"not an int\"\n"
	const unparsable = "package app\n\nfunc {\n"

	for _, src := range []string{broken, unparsable} {
		cfg := unit(t, src, nil)
		stdout, stderr, exit := runTool(t, cfg)
		if exit != 1 || stdout != "" || !strings.HasPrefix(stderr, "nalvet: ") || !strings.Contains(stderr, "app.go:3:") {
			t.Errorf("exit=%d stdout=%q stderr=%q; want exit 1 and the error at app.go:3", exit, stdout, stderr)
		}

		// The go command sets this when the compiler already reports the
		// error: the tool must stay silent and succeed.
		cfg = unit(t, src, map[string]any{"SucceedOnTypecheckFailure": true})
		stdout, stderr, exit = runTool(t, cfg)
		if exit != 0 || stdout != "" || stderr != "" {
			t.Errorf("SucceedOnTypecheckFailure: exit=%d stdout=%q stderr=%q; want silent success", exit, stdout, stderr)
		}
	}
}

func TestDriverVetxOnlyReportsNothing(t *testing.T) {
	cfg := unit(t, violating, nil)
	_, stderr, exit := runTool(t, cfg)
	if exit != 1 || !strings.Contains(stderr, "app.go:5:9: mustparse: MustParse panics on malformed input") {
		t.Fatalf("exit=%d stderr=%q; the unit must produce a finding when it is not VetxOnly", exit, stderr)
	}

	stdout, stderr, exit := runTool(t, "-json", cfg)
	var tree map[string]map[string][]struct{ Posn, Message string }
	if err := json.Unmarshal([]byte(stdout), &tree); err != nil || exit != 0 || stderr != "" ||
		len(tree["fixture/app"]["mustparse"]) != 1 {
		t.Errorf("-json: exit=%d err=%v stdout=%q stderr=%q; want exit 0 and one mustparse finding under the unit's ID",
			exit, err, stdout, stderr)
	}

	// Even an unloadable dependency pass succeeds: nothing is read but the config.
	for _, src := range []string{violating, "package app\n\nfunc {\n"} {
		cfg = unit(t, src, map[string]any{"VetxOnly": true})
		for _, args := range [][]string{{cfg}, {"-json", cfg}} {
			stdout, stderr, exit := runTool(t, args...)
			if exit != 0 || stdout != "" || stderr != "" {
				t.Errorf("VetxOnly %v: exit=%d stdout=%q stderr=%q; want silent success", args, exit, stdout, stderr)
			}
		}
	}
}

// TestDriverHandshake pins the two queries the go command makes before it
// runs the tool on any package.
func TestDriverHandshake(t *testing.T) {
	// cmd/go/internal/work.(*Builder).toolID: at least three fields, the
	// second "version"; for a "devel" version the last must be a buildID.
	stdout, _, exit := runTool(t, "-V=full")
	f := strings.Fields(stdout)
	if exit != 0 || len(f) < 3 || f[1] != "version" || f[2] != "devel" ||
		len(strings.TrimPrefix(f[len(f)-1], "buildID=")) != 64 {
		t.Errorf("-V=full: exit=%d output %q; want \"nalvet version devel ... buildID=<sha256>\"", exit, stdout)
	}
	if _, stderr, exit := runTool(t, "-V=short"); exit != 1 || !strings.Contains(stderr, "-V=full") {
		t.Errorf("-V=short: exit=%d stderr=%q; want exit 1 naming -V=full", exit, stderr)
	}

	stdout, _, exit = runTool(t, "-flags")
	var flags []struct {
		Name string
		Bool bool
	}
	if err := json.Unmarshal([]byte(stdout), &flags); err != nil || exit != 0 {
		t.Fatalf("-flags: exit=%d err=%v output %q", exit, err, stdout)
	}
	var got []string
	for _, fl := range flags {
		got = append(got, fl.Name)
		if fl.Bool != (fl.Name == "json") {
			t.Errorf("-flags: %s advertised with Bool=%v", fl.Name, fl.Bool)
		}
	}
	want := "budgetcharge.pkgs json opcomplete.oppkg opcomplete.require panicdiscipline.pkgs"
	if strings.Join(got, " ") != want {
		t.Errorf("-flags advertises %q; want exactly %q", strings.Join(got, " "), want)
	}

	if _, stderr, exit := runTool(t); exit != 2 || !strings.Contains(stderr, "usage:") {
		t.Errorf("no arguments: exit=%d stderr=%q; want usage and exit 2", exit, stderr)
	}
}

// TestTreeIsLintClean runs the suite over the repository itself, so a
// finding fails tier-1 (go test ./...) and not only make lint.
func TestTreeIsLintClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// go test caches a result on the files the test process itself read,
	// and the tree is read by the vet subprocess. List every vetted
	// directory here so that an edit anywhere in the module re-runs the test.
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); name[0] == '.' || name == "testdata" || name == "benchmark" {
			return filepath.SkipDir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range vettest.Run(t, root) {
		t.Errorf("finding on the tree: %s", d)
	}
}
