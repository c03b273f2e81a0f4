package schema

import "testing"

// Edge-case tests for the DTD-fact decision procedures behind the
// condition-bearing equivalences.

// TestUnknownDocumentConservative: facts about unregistered documents must
// come back negative — the rewriter then skips the condition-bearing
// equivalences rather than guessing.
func TestUnknownDocumentConservative(t *testing.T) {
	c := NewCatalog()
	if c.Has("nope.xml") {
		t.Errorf("Has must be false for unregistered documents")
	}
	if c.SameNodeSet("nope.xml", "//a", "//b/a") {
		t.Errorf("SameNodeSet must be false without facts")
	}
	if c.SingletonPath("nope.xml", "a", "b") {
		t.Errorf("SingletonPath must be false without facts")
	}
	if c.SameNodeSet("nope.xml", "//a", "//b/a") {
		t.Errorf("SameNodeSet must be false without facts")
	}
}

// TestSameNodeSetRequiresUniqueParent: when an element occurs under two
// parents, //x and //p/x differ and the equality must be rejected.
func TestSameNodeSetRequiresUniqueParent(t *testing.T) {
	c := NewCatalog()
	c.Doc("d.xml").
		Child("root", "p", 0, -1).
		Child("root", "q", 0, -1).
		Child("p", "x", 0, -1).
		Child("q", "x", 0, -1)
	if c.SameNodeSet("d.xml", "//x", "//p/x") {
		t.Errorf("//x also occurs under q; equality with //p/x must be rejected")
	}
}

// TestSameNodeSetAcceptsUniqueChain: with a single parent chain the
// equality holds.
func TestSameNodeSetAcceptsUniqueChain(t *testing.T) {
	c := NewCatalog()
	c.Doc("d.xml").
		Child("root", "p", 0, -1).
		Child("p", "x", 0, -1)
	if !c.SameNodeSet("d.xml", "//x", "//p/x") {
		t.Errorf("unique chain //p/x must equal //x")
	}
	if !c.SameNodeSet("d.xml", "//p/x", "//x") {
		t.Errorf("node-set equality must be symmetric")
	}
}

// TestRequiredAttrFacts: required vs optional attributes, unknown
// elements.
func TestRequiredAttrFacts(t *testing.T) {
	c := NewCatalog()
	f := c.Doc("d.xml").
		Child("root", "book", 0, -1).
		Attr("book", "year", true).
		Attr("book", "isbn", false)
	if !f.RequiredAttr("book", "year") {
		t.Errorf("year is #REQUIRED")
	}
	if f.RequiredAttr("book", "isbn") {
		t.Errorf("isbn is #IMPLIED")
	}
	if f.RequiredAttr("book", "missing") {
		t.Errorf("unknown attribute cannot be required")
	}
	if f.RequiredAttr("unknown", "year") {
		t.Errorf("unknown element cannot carry facts")
	}
}

// TestSingletonVsRepeatedChild: multiplicity facts distinguish 1 from *.
func TestSingletonVsRepeatedChild(t *testing.T) {
	c := NewCatalog()
	f := c.Doc("d.xml").
		Child("book", "title", 1, 1).
		Child("book", "author", 1, -1)
	if !f.SingletonChild("book", "title") {
		t.Errorf("title is a singleton child")
	}
	if f.SingletonChild("book", "author") {
		t.Errorf("author repeats; not a singleton")
	}
	if !f.RequiredChild("book", "title") || !f.RequiredChild("book", "author") {
		t.Errorf("both children are required (minOccurs 1)")
	}
	if f.RequiredChild("book", "missing") {
		t.Errorf("unknown child cannot be required")
	}
}
