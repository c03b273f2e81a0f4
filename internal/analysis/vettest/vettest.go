// Package vettest is the fixture harness for the nalvet analyzers.
//
// It exercises the exact production path: it builds cmd/nalvet once,
// copies a fixture tree into a throwaway module, runs
// "go vet -vettool=nalvet -json" over it, and checks the JSON findings
// against expectations written in the fixture — comments of the form
//
//	// want "regexp" "another regexp"
//
// anchored to the line they sit on. Unmatched expectations and unexpected
// findings both fail the test, so fixtures prove each analyzer fires on
// seeded violations and stays silent on compliant code.
package vettest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Diag is one finding parsed from go vet's JSON output.
type Diag struct {
	Analyzer string
	File     string // relative to the fixture module root
	Line     int
	Message  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Analyzer, d.Message)
}

var (
	buildOnce sync.Once
	toolPath  string
	buildErr  error
)

// Tool builds cmd/nalvet once per test process and returns its path.
func Tool(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "nalvet-tool-")
		if err != nil {
			buildErr = err
			return
		}
		toolPath = filepath.Join(dir, "nalvet")
		// The test runs in a package directory of this module, which is
		// all the go command needs to resolve the import path.
		out, err := exec.Command("go", "build", "-o", toolPath, "nalquery/cmd/nalvet").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("building nalvet: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return toolPath
}

// CopyFixture copies the fixture tree at src into a fresh throwaway
// module under t.TempDir and returns the module root.
func CopyFixture(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	if err := copyTree(src, dst); err != nil {
		t.Fatalf("copying fixture %s: %v", src, err)
	}
	mod := filepath.Join(dst, "go.mod")
	if _, err := os.Stat(mod); os.IsNotExist(err) {
		if err := os.WriteFile(mod, []byte("module fixture\n\ngo 1.23\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// Run executes nalvet over the fixture module and returns its findings.
// Build failures of the fixture itself are fatal.
func Run(t *testing.T, moduleDir string, flags ...string) []Diag {
	t.Helper()
	tool := Tool(t)
	args := append([]string{"vet", "-vettool=" + tool, "-json"}, flags...)
	args = append(args, "./...")
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	out, _ := cmd.CombinedOutput()
	diags, err := parseJSON(out)
	if err != nil {
		t.Fatalf("go vet output not parseable: %v\noutput:\n%s", err, out)
	}
	for i := range diags {
		if rel, err := filepath.Rel(moduleDir, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
	return diags
}

// parseJSON decodes go vet -json output: '#' comment lines interleaved
// with one JSON object per package, keyed package → analyzer → findings.
func parseJSON(out []byte) ([]Diag, error) {
	var clean bytes.Buffer
	for _, line := range bytes.Split(out, []byte("\n")) {
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte("#")) {
			continue
		}
		clean.Write(line)
		clean.WriteByte('\n')
	}
	var diags []Diag
	dec := json.NewDecoder(&clean)
	for dec.More() {
		var obj map[string]map[string][]struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		if err := dec.Decode(&obj); err != nil {
			return nil, err
		}
		for _, byAnalyzer := range obj {
			for analyzer, findings := range byAnalyzer {
				for _, f := range findings {
					file, line := splitPosn(f.Posn)
					diags = append(diags, Diag{Analyzer: analyzer, File: file, Line: line, Message: f.Message})
				}
			}
		}
	}
	return diags, nil
}

func splitPosn(posn string) (string, int) {
	parts := strings.Split(posn, ":")
	if len(parts) < 2 {
		return posn, 0
	}
	// file:line:col — the file part may contain no further colons on
	// the platforms we run on.
	line, _ := strconv.Atoi(parts[len(parts)-2])
	return strings.Join(parts[:len(parts)-2], ":"), line
}

// want anchors to its own line; want-below anchors to the line beneath
// it (for findings reported at a comment that cannot itself carry a
// trailing want, like a malformed //nal: annotation).
var wantRe = regexp.MustCompile(`//\s*want(-below)?\s+(.*)$`)
var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

// Check compares findings against the fixture's // want expectations.
func Check(t *testing.T, moduleDir string, diags []Diag) {
	t.Helper()
	var wants []expectation
	err := filepath.Walk(moduleDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, _ := filepath.Rel(moduleDir, path)
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		for i, line := range strings.Split(string(b), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			wantLine := i + 1
			if m[1] == "-below" {
				wantLine++
			}
			for _, arg := range wantArgRe.FindAllStringSubmatch(m[2], -1) {
				re, cerr := regexp.Compile(arg[1])
				if cerr != nil {
					return fmt.Errorf("%s:%d: bad want pattern %q: %v", rel, i+1, arg[1], cerr)
				}
				wants = append(wants, expectation{file: rel, line: wantLine, re: re, raw: arg[1]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.File != w.file || d.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing expected finding at %s:%d matching %q", w.file, w.line, w.raw)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}

// RunAndCheck is the common fixture flow: copy, vet, compare.
func RunAndCheck(t *testing.T, fixture string, flags ...string) {
	t.Helper()
	dir := CopyFixture(t, fixture)
	Check(t, dir, Run(t, dir, flags...))
}
