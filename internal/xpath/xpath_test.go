package xpath

import (
	"slices"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
)

const sample = `<bib>
<book year="1994"><title>T1</title>
  <author><last>L1</last><first>F1</first></author></book>
<book year="2000"><title>T2</title>
  <author><last>L2</last><first>F2</first></author>
  <author><last>L3</last><first>F3</first></author></book>
</bib>`

func doc(t *testing.T) value.Value {
	t.Helper()
	d := dom.MustParseString(sample, "bib.xml")
	return value.NodeVal{Node: d.Root}
}

func names(nodes []*dom.Node) []string {
	var out []string
	for _, n := range nodes {
		out = append(out, n.Name())
	}
	return out
}

func vals(nodes []*dom.Node) []string {
	var out []string
	for _, n := range nodes {
		out = append(out, n.StringValue())
	}
	return out
}

func TestParseAndString(t *testing.T) {
	cases := map[string]string{
		"book/title":      "book/title",
		"//book/title":    "//book/title",
		"//book/@year":    "//book/@year",
		"book//author":    "book//author",
		"@year":           "@year",
		"*":               "*",
		"//*":             "//*",
		"bidtuple/itemno": "bidtuple/itemno",
		"/book":           "book",
	}
	for in, want := range cases {
		p, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got := p.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", in, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "//", "a/", "a//", "a/[x]", "a b"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) must fail", bad)
		}
	}
}

func TestDescendantStep(t *testing.T) {
	out := MustParse("//author").Append(nil, doc(t))
	if len(out) != 3 {
		t.Fatalf("//author: %d", len(out))
	}
	if got := vals(out); got[0] != "L1F1" || got[2] != "L3F3" {
		t.Fatalf("//author values: %v", got)
	}
}

func TestChildChain(t *testing.T) {
	d := dom.MustParseString(sample, "bib.xml")
	root := value.NodeVal{Node: d.RootElement()}
	out := MustParse("book/title").Append(nil, root)
	if got := vals(out); len(got) != 2 || got[0] != "T1" || got[1] != "T2" {
		t.Fatalf("book/title: %v", got)
	}
}

func TestMixedDescendantChild(t *testing.T) {
	out := MustParse("//book/title").Append(nil, doc(t))
	if got := vals(out); len(got) != 2 || got[0] != "T1" {
		t.Fatalf("//book/title: %v", got)
	}
}

func TestAttributeStep(t *testing.T) {
	out := MustParse("//book/@year").Append(nil, doc(t))
	if got := vals(out); len(got) != 2 || got[0] != "1994" || got[1] != "2000" {
		t.Fatalf("@year: %v", got)
	}
}

func TestWildcard(t *testing.T) {
	d := dom.MustParseString(sample, "bib.xml")
	book := value.NodeVal{Node: d.RootElement().FirstChildElement("book")}
	out := MustParse("*").Append(nil, book)
	if got := names(out); len(got) != 2 || got[0] != "title" || got[1] != "author" {
		t.Fatalf("* children: %v", got)
	}
}

func TestDuplicateFreeDocOrder(t *testing.T) {
	// A descendant step over overlapping contexts must not duplicate.
	d := dom.MustParseString(`<r><a><a><x/></a></a></r>`, "dup.xml")
	ctx := value.NodeVal{Node: d.Root}
	out := MustParse("//a//x").Append(nil, ctx)
	if len(out) != 1 {
		t.Fatalf("//a//x must be duplicate-free, got %d", len(out))
	}
}

func TestEmptyContexts(t *testing.T) {
	if out := MustParse("//a").Append(nil, value.Null{}); len(out) != 0 {
		t.Fatalf("path over NULL context: %v", out)
	}
	if out := MustParse("//missing").Append(nil, doc(t)); len(out) != 0 {
		t.Fatalf("missing elements: %v", out)
	}
}

func TestSequenceContext(t *testing.T) {
	d := dom.MustParseString(sample, "bib.xml")
	var books value.Seq
	for _, b := range d.RootElement().ChildElements("book") {
		books = append(books, value.NodeVal{Node: b})
	}
	out := MustParse("author/last").Append(nil, books)
	if got := vals(out); len(got) != 3 || got[0] != "L1" {
		t.Fatalf("seq context: %v", got)
	}
}

// TestSelectsAgainstAppend: over a document's absolute paths, the nodes at
// the paths a path expression Selects are exactly the nodes Append selects
// from the document node — the partition property index resolution relies
// on — and the paths it SelectsBelow are those Append reaches from some
// context node, which the path-aware estimates sum.
func TestSelectsAgainstAppend(t *testing.T) {
	d := dom.MustParseString(`<lib>
  <shelf><book year="1"><title>t1</title><note><title>n</title></note></book></shelf>
  <shelf id="s"><book year="2"><title>t2</title></book><journal><title>j</title></journal></shelf>
  <title>top</title>
</lib>`, "lib.xml")
	// Each element's and attribute's absolute path, by rank.
	abs := make([]string, d.NumNodes())
	for r := 1; r < d.NumNodes(); r++ {
		switch n := d.Node(r); n.Kind() {
		case dom.KindElement:
			abs[r] = abs[n.Parent().Order()] + "/" + n.Name()
		case dom.KindAttribute:
			abs[r] = abs[n.Parent().Order()] + "/@" + n.Name()
		}
	}
	for _, e := range []string{
		"/lib", "/lib/shelf", "/lib/shelf/book", "/lib/shelf/book/@year",
		"//title", "//book/title", "/lib//title", "//book//title",
		"//note", "/lib/*", "//*", "//shelf/*/title", "//@year", "//@*",
		"//shelf/@*", "/lib/@*", "//*/@id", "/lib/missing", "//missing",
	} {
		p := MustParse(e)
		if p.Positional() {
			t.Fatalf("%s: reported positional", e)
		}
		var got []*dom.Node
		for r, a := range abs {
			if a != "" && p.Selects(a) {
				got = append(got, d.Node(r))
			}
		}
		if want := p.Append(nil, value.NodeVal{Node: d.Root}); !slices.Equal(got, want) {
			t.Errorf("%s: the selected paths hold %v, Append selects %v", e, names(got), names(want))
		}
	}
	// SelectsBelow: the paths reached from the document node or any
	// element, each context taken on its own.
	for _, e := range []string{
		"title", "book/title", "shelf/book", "lib", "@year", "@*", "*/title", "*",
		"book//title", "//note/title", "shelf/@id", "missing",
	} {
		p := MustParse(e)
		reached := map[string]bool{}
		for r := 0; r < d.NumNodes(); r++ {
			if n := d.Node(r); r == 0 || n.Kind() == dom.KindElement {
				for _, m := range p.Append(nil, value.NodeVal{Node: n}) {
					reached[abs[m.Order()]] = true
				}
			}
		}
		for _, a := range abs {
			if a != "" && p.SelectsBelow(a) != reached[a] {
				t.Errorf("%s: SelectsBelow(%s) = %v, reached from some context: %v", e, a, !reached[a], reached[a])
			}
		}
	}
	if !MustParse("/lib/shelf[1]").Positional() || !MustParse("//book[last()]/title").Positional() {
		t.Errorf("a positional predicate went unreported")
	}
}
