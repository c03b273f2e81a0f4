package xpath

import (
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
)

const posDoc = `<bib>
	<book><title>t1</title><author>a1</author><author>a2</author></book>
	<book><title>t2</title><author>a3</author></book>
	<book><title>t3</title><author>a4</author><author>a5</author><author>a6</author></book>
</bib>`

func parseDoc(t *testing.T, s string) *dom.Document {
	t.Helper()
	d, err := dom.Parse(strings.NewReader(s), "test.xml")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func evalStrings(t *testing.T, d *dom.Document, path string) []string {
	t.Helper()
	p, err := Parse(path)
	if err != nil {
		t.Fatalf("parse %q: %v", path, err)
	}
	var ss []string
	for _, n := range p.Append(nil, value.NodeVal{Node: d.Root}) {
		ss = append(ss, n.StringValue())
	}
	return ss
}

// TestPositionalFirst: [1] selects the first node per context node, not of
// the whole sequence.
func TestPositionalFirst(t *testing.T) {
	d := parseDoc(t, posDoc)
	got := evalStrings(t, d, "//book/author[1]")
	want := []string{"a1", "a3", "a4"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("author[1] = %v, want %v", got, want)
	}
}

// TestPositionalLast: [last()] selects the last node per context node.
func TestPositionalLast(t *testing.T) {
	d := parseDoc(t, posDoc)
	got := evalStrings(t, d, "//book/author[last()]")
	want := []string{"a2", "a3", "a6"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("author[last()] = %v, want %v", got, want)
	}
}

// TestPositionalOutOfRange: positions beyond the selection yield nothing
// for that context node.
func TestPositionalOutOfRange(t *testing.T) {
	d := parseDoc(t, posDoc)
	got := evalStrings(t, d, "//book/author[3]")
	want := []string{"a6"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("author[3] = %v, want %v", got, want)
	}
}

// TestPositionalOnPathStep: positional predicate on an interior step.
func TestPositionalOnPathStep(t *testing.T) {
	d := parseDoc(t, posDoc)
	got := evalStrings(t, d, "//book[2]/title")
	want := []string{"t2"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("book[2]/title = %v, want %v", got, want)
	}
}

// TestPositionalParseErrors: unsupported predicates are rejected with a
// helpful message; attribute steps take no positional predicate.
func TestPositionalParseErrors(t *testing.T) {
	for _, bad := range []string{
		"book[0]", "book[-1]", "book[x]", "book[1", "book/@year[1]",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): no error", bad)
		}
	}
}

// TestPositionalRoundTrip: String() renders the predicate back.
func TestPositionalRoundTrip(t *testing.T) {
	for _, s := range []string{"//book/author[1]", "//book[2]/title", "book/author[last()]"} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if p.String() != s {
			t.Errorf("round trip %q → %q", s, p.String())
		}
	}
}

// TestPositionalDescendant: positions apply per context node on descendant
// steps too.
func TestPositionalDescendant(t *testing.T) {
	d := parseDoc(t, posDoc)
	got := evalStrings(t, d, "//author[1]")
	// One context node (the root), so [1] picks the globally first author.
	want := []string{"a1"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("//author[1] = %v, want %v", got, want)
	}
}
