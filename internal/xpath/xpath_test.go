package xpath

import (
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
