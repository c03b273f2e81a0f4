package main

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	nalquery "nalquery"
	"nalquery/internal/cli"
)

// nalsh runs the front end on args with stdin and returns its exit code,
// stdout and stderr.
func nalsh(stdin string, args ...string) (int, string, string) {
	var out, errOut strings.Builder
	code := run(args, strings.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
}

// corpus is what -gen size loads.
func corpus(size int) *nalquery.Engine {
	eng := nalquery.NewEngine()
	eng.LoadUseCaseDocuments(size, 2)
	eng.LoadDBLPDocument(size)
	return eng
}

// TestFrontEnd drives nalsh through its flags: a one-shot run prints what
// cli.RunPlan gives for the same plan over the same documents, a -var
// binding acts as the literal it binds, usage errors exit 2 and parse or
// run errors 1 with nothing on stdout, and a shell session on stdin
// prints its transcript (run times masked).
func TestFrontEnd(t *testing.T) {
	eng := corpus(20)
	runOf := func(text, plan string) string {
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := cli.RunPlan(q, plan)
		if err != nil {
			t.Fatal(err)
		}
		return out + "\n"
	}
	const (
		withVar = `declare variable $y external; let $d := doc("bib.xml") for $b in $d//book where $b/@year > $y return $b/title`
		literal = `let $d := doc("bib.xml") for $b in $d//book where $b/@year > 1995 return $b/title`
		banner  = "nalquery shell — terminate queries with ';', \\quit to exit\nnal> "
	)
	type row struct {
		name   string
		args   []string
		stdin  string
		code   int
		stdout string
		stderr string // a substring of stderr
	}
	var rows []row
	for _, id := range []string{"q1", "q3"} {
		q, err := eng.Compile(nalquery.PaperQueries[id])
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range q.Plans() {
			rows = append(rows, row{name: id + "/" + p.Name, args: []string{"-gen", "20", "-plan", p.Name, "-paper", id},
				stdout: runOf(nalquery.PaperQueries[id], p.Name)})
		}
	}
	rows = append(rows, []row{
		{name: "-var", args: []string{"-gen", "20", "-var", "y=1995", "-q", withVar}, stdout: runOf(literal, "")},
		{name: "-stats", args: []string{"-gen", "20", "-stats", "-plan", "nested", "-q", literal}, stdout: runOf(literal, "nested"),
			stderr: "plan: nested  time: "},
		{name: "-doc without =", args: []string{"-doc", "bad", "-q", literal}, code: 2, stderr: "-doc needs uri=path"},
		{name: "-doc missing file", args: []string{"-doc", "bib.xml=testdata/absent.xml", "-q", literal}, code: 1},
		{name: "-var without =", args: []string{"-var", "y", "-q", withVar}, code: 2, stderr: "-var needs name=value"},
		{name: "-max-memory", args: []string{"-max-memory", "lots", "-q", literal}, code: 2, stderr: "bad byte count"},
		{name: "unknown flag", args: []string{"-size", "100"}, code: 2, stderr: "flag provided but not defined: -size"},
		{name: "unknown -paper", args: []string{"-paper", "q9"}, code: 2, stderr: `unknown paper query "q9"`},
		{name: "parse error", args: []string{"-q", "for $x inn 1 return $x"}, code: 1,
			stderr: "for $x inn 1 return $x\n           ^\n"},
		{name: "undeclared -var", args: []string{"-var", "x=1", "-q", literal}, code: 1, stderr: "-var x:"},
		{name: "unknown plan", args: []string{"-gen", "20", "-plan", "nope", "-q", literal}, code: 1},
		{name: "shell", args: []string{"-gen", "3", "-var", "y=1995"},
			stdin: "\\set\n" + strings.Replace(withVar, ";", ";\n", 1) + ";\n\\plan nested\n\\quit\n",
			stdout: banner + "  $y = 1995\nnal>    ...> compiled; 2 plan alternatives (\\plans to list)\n" +
				"external variables: $y (\\set NAME VALUE to bind)\n<title>Title 1</title><title>Title 2</title>\n" +
				"-- plan indexed nested, T, doc-scans=1, nested-evals=0\n" +
				"nal> <title>Title 1</title><title>Title 2</title>\n-- plan nested, T, doc-scans=1, nested-evals=0\nnal> "},
		// A ';' inside a string or a comment does not end the query.
		{name: "shell ; in string", args: []string{"-gen", "3"},
			stdin: "let $d := doc(\"bib.xml\")\nlet $s := \"a;b\"\nreturn $s;\n",
			stdout: banner + "   ...>    ...> compiled; 1 plan alternatives (\\plans to list)\na;b\n" +
				"-- plan nested, T, doc-scans=1, nested-evals=0\nnal> "},
		{name: "shell ; in comment", stdin: "(: a; b :)\nlet $s := \"c\" return $s;\n",
			stdout: banner + "   ...> compiled; 1 plan alternatives (\\plans to list)\nc\n" +
				"-- plan nested, T, doc-scans=0, nested-evals=0\nnal> "},
		// Comments and whitespace after the ';' do not hold the query open.
		{name: "shell comment after ;", stdin: "let $s := \"c\" return $s; (: done (: nested; :) :) \n" +
			"let $s := \"d;\" return $s;\n",
			stdout: banner + "compiled; 1 plan alternatives (\\plans to list)\nc\n" +
				"-- plan nested, T, doc-scans=0, nested-evals=0\nnal> compiled; 1 plan alternatives (\\plans to list)\nd;\n" +
				"-- plan nested, T, doc-scans=0, nested-evals=0\nnal> "},
	}...)

	elapsed := regexp.MustCompile(`(?m)^(-- plan [^,]*), [^,]*,`)
	for _, r := range rows {
		code, stdout, stderr := nalsh(r.stdin, r.args...)
		stdout = elapsed.ReplaceAllString(stdout, "$1, T,")
		if code != r.code || stdout != r.stdout || !strings.Contains(stderr, r.stderr) {
			t.Errorf("%s: nalsh %q exits %d\nstdout %q\nstderr %q\nwant exit %d\nstdout %q\nstderr containing %q",
				r.name, r.args, code, stdout, stderr, r.code, r.stdout, r.stderr)
		}
	}
}

// TestExplainMatchesCompileOverCorpus: for every paper query the plans
// -explain lists and the plan -dot best draws are those Compile and
// Plan("") give over the documents -gen loads — an engine without
// documents offers no indexed plans and picks another best plan.
func TestExplainMatchesCompileOverCorpus(t *testing.T) {
	eng := corpus(40)
	heading := regexp.MustCompile(`(?m)^== plan: (.*?)(?: \[.*\])? ==$`)
	for id, text := range nalquery.PaperQueries {
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var want []string
		for _, p := range q.Plans() {
			want = append(want, p.Name)
		}
		code, listing, stderr := nalsh("", "-gen", "40", "-paper", id, "-explain")
		if code != 0 {
			t.Fatalf("%s: -explain exits %d: %s", id, code, stderr)
		}
		var got []string
		for _, m := range heading.FindAllStringSubmatch(listing, -1) {
			got = append(got, m[1])
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: -explain lists %v, Compile has %v", id, got, want)
		}

		best, err := q.Plan("")
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if _, dot, _ := nalsh("", "-gen", "40", "-paper", id, "-dot", "best"); dot != best.ExplainDot() {
			t.Errorf("%s: -dot best is not the dot of Plan(\"\") (%s)", id, best.Name)
		}
	}
}

// TestCardsCorpusCoversPaperQueries: under the documents -gen loads, the
// root Ξ of every plan -cards reports for a paper query emits rows —
// q1dblp reads dblp.xml, which the use-case documents alone do not hold
// (every operator above its doc() then reported actual=0 beside a
// plausible estimate).
func TestCardsCorpusCoversPaperQueries(t *testing.T) {
	root := regexp.MustCompile(`(?m)^== plan: (.*) \(est vs actual cardinality\) ==\n.* actual=(\S+)$`)
	for id := range nalquery.PaperQueries {
		code, out, stderr := nalsh("", "-gen", "40", "-paper", id, "-cards")
		if code != 0 {
			t.Fatalf("%s: -cards exits %d: %s", id, code, stderr)
		}
		plans := root.FindAllStringSubmatch(out, -1)
		if len(plans) == 0 {
			t.Fatalf("%s: -cards printed no plan:\n%s", id, out)
		}
		for _, m := range plans {
			if m[2] == "0" || m[2] == "-" {
				t.Errorf("%s: root of plan %q has actual=%s, want > 0", id, m[1], m[2])
			}
		}
	}
}
