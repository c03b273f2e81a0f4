package schema

import "testing"

func TestSameNodeSetUseCases(t *testing.T) {
	c := UseCases()
	cases := []struct {
		uri, a, b string
		want      bool
	}{
		// The Sec. 5.1 condition: every author is directly under a book.
		{"bib.xml", "//author", "//book/author", true},
		{"bib.xml", "//book/author", "//author", true}, // symmetric
		// Identical chains.
		{"prices.xml", "//book/title", "//book/title", true},
		// The Sec. 5.6 condition.
		{"bids.xml", "//itemno", "//bidtuple/itemno", true},
		// DBLP: authors occur under several publication kinds (the paper's
		// counterexample).
		{"dblp.xml", "//author", "//book/author", false},
		// Different leaf elements never match.
		{"bib.xml", "//author", "//book/title", false},
		// Unknown document.
		{"nope.xml", "//a", "//a", false},
		// title occurs under book only in bib.xml, but chains must still
		// correspond element-wise.
		{"bib.xml", "//title", "//book/title", true},
		{"bib.xml", "//last", "//book/author/last", false}, // last also under editor
	}
	for _, cse := range cases {
		if got := c.SameNodeSet(cse.uri, cse.a, cse.b); got != cse.want {
			t.Errorf("SameNodeSet(%s, %s, %s) = %v, want %v", cse.uri, cse.a, cse.b, got, cse.want)
		}
	}
}

func TestSingletonPath(t *testing.T) {
	c := UseCases()
	cases := []struct {
		uri, ctx, path string
		want           bool
	}{
		{"bib.xml", "book", "title", true},
		{"bib.xml", "book", "price", true},
		{"bib.xml", "book", "author", false},
		{"bib.xml", "book", "@year", true},
		{"bib.xml", "book", "author/last", false}, // author is multi
		{"bib.xml", "author", "last", true},
		{"bids.xml", "bidtuple", "itemno", true},
		{"nope.xml", "book", "title", false},
	}
	for _, cse := range cases {
		if got := c.SingletonPath(cse.uri, cse.ctx, cse.path); got != cse.want {
			t.Errorf("SingletonPath(%s, %s, %s) = %v, want %v", cse.uri, cse.ctx, cse.path, got, cse.want)
		}
	}
}

func TestCustomFacts(t *testing.T) {
	c := NewCatalog()
	f := c.Doc("mine.xml")
	f.Child("root", "item", 0, -1)
	f.Child("item", "id", 1, 1)
	if !c.Has("mine.xml") || c.Has("other.xml") {
		t.Fatalf("Has wrong")
	}
	if !c.SameNodeSet("mine.xml", "//id", "//item/id") {
		t.Fatalf("custom facts must support SameNodeSet")
	}
	parents, ok := f.Parents("id")
	if !ok || !parents["item"] {
		t.Fatalf("parents: %v %v", parents, ok)
	}
	if !f.SingletonChild("item", "id") || f.SingletonChild("root", "item") {
		t.Fatalf("singleton facts wrong")
	}
	if !f.RequiredChild("item", "id") || f.RequiredChild("root", "item") {
		t.Fatalf("required facts wrong")
	}
}

func TestSameNodeSetRejectsAttributePaths(t *testing.T) {
	c := UseCases()
	if c.SameNodeSet("bib.xml", "//book/@year", "//book/@year") {
		t.Fatalf("attribute chains are out of scope for node-set reasoning")
	}
}

func TestCoversAllValues(t *testing.T) {
	c := UseCases()
	if !c.SameNodeSet("bib.xml", "//author", "//book/author") {
		t.Fatalf("value coverage must follow node-set equality")
	}
}
