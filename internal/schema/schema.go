// Package schema holds the DTD-derived facts the optimizer needs to verify
// the side conditions of the unnesting equivalences.
//
// The paper verifies conditions such as e1 = ΠD A1:A2(ΠA2(e2)) "from the
// DTD" (Sec. 5.1: the condition holds "if there are no author elements other
// than those directly under book elements ... However, it is not true for
// DBLP's DTD"). The catalog answers exactly those questions: which parents
// an element may occur under, whether a child is unique per parent, and
// whether two descendant paths denote the same node set.
package schema

import (
	"strings"
)

// Catalog maps document URIs to their DTD facts.
type Catalog struct {
	docs map[string]*DocFacts
}

// DocFacts records the structural facts of one DTD.
type DocFacts struct {
	// parents[child] is the set of element names child may occur under.
	parents map[string]map[string]bool
	// singleton["parent/child"] is true when at most one child occurs per
	// parent element.
	singleton map[string]bool
	// required["parent/child"] is true when at least one child occurs per
	// parent element.
	required map[string]bool
	// requiredAttr["elem/@name"] is true when the attribute is #REQUIRED.
	requiredAttr map[string]bool
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{docs: map[string]*DocFacts{}}
}

// Doc returns (creating if needed) the fact set of a document URI.
func (c *Catalog) Doc(uri string) *DocFacts {
	f, ok := c.docs[uri]
	if !ok {
		f = &DocFacts{
			parents:      map[string]map[string]bool{},
			singleton:    map[string]bool{},
			required:     map[string]bool{},
			requiredAttr: map[string]bool{},
		}
		c.docs[uri] = f
	}
	return f
}

// Clone deep-copies the catalog. The engine's copy-on-write snapshot
// scheme hands mutation a fresh copy so catalogs already captured by
// compiled queries — and snapshots concurrent compilations are reading —
// stay immutable.
func (c *Catalog) Clone() *Catalog {
	out := &Catalog{docs: make(map[string]*DocFacts, len(c.docs))}
	for uri, f := range c.docs {
		nf := &DocFacts{
			parents:      make(map[string]map[string]bool, len(f.parents)),
			singleton:    make(map[string]bool, len(f.singleton)),
			required:     make(map[string]bool, len(f.required)),
			requiredAttr: make(map[string]bool, len(f.requiredAttr)),
		}
		for child, ps := range f.parents {
			np := make(map[string]bool, len(ps))
			for k, v := range ps {
				np[k] = v
			}
			nf.parents[child] = np
		}
		for k, v := range f.singleton {
			nf.singleton[k] = v
		}
		for k, v := range f.required {
			nf.required[k] = v
		}
		for k, v := range f.requiredAttr {
			nf.requiredAttr[k] = v
		}
		out.docs[uri] = nf
	}
	return out
}

// Has reports whether facts are registered for the URI.
func (c *Catalog) Has(uri string) bool {
	_, ok := c.docs[uri]
	return ok
}

// Child declares that child elements occur under parent. minOccurs/maxOccurs
// describe the count per parent instance: use max = 1 for unique children
// and max < 0 for unbounded.
func (f *DocFacts) Child(parent, child string, minOccurs, maxOccurs int) *DocFacts {
	p, ok := f.parents[child]
	if !ok {
		p = map[string]bool{}
		f.parents[child] = p
	}
	p[parent] = true
	key := parent + "/" + child
	f.singleton[key] = maxOccurs == 1
	f.required[key] = minOccurs >= 1
	return f
}

// Attr declares an attribute of an element; required corresponds to
// #REQUIRED in the DTD.
func (f *DocFacts) Attr(elem, name string, required bool) *DocFacts {
	f.requiredAttr[elem+"/@"+name] = required
	return f
}

// RequiredAttr reports whether the attribute is #REQUIRED on the element.
func (f *DocFacts) RequiredAttr(elem, name string) bool {
	return f.requiredAttr[elem+"/@"+name]
}

// Parents returns the possible parent elements of child, and whether the
// fact is known.
func (f *DocFacts) Parents(child string) (map[string]bool, bool) {
	p, ok := f.parents[child]
	return p, ok
}

// SingletonChild reports whether at most one child element occurs per
// parent.
func (f *DocFacts) SingletonChild(parent, child string) bool {
	return f.singleton[parent+"/"+child]
}

// RequiredChild reports whether at least one child occurs per parent.
func (f *DocFacts) RequiredChild(parent, child string) bool {
	return f.required[parent+"/"+child]
}

// SingletonPath reports whether the relative path (a chain of child steps
// such as "title" or "price") selects at most one node per context element.
// Attribute steps ("@year") are singletons by definition.
func (c *Catalog) SingletonPath(uri, contextElem, path string) bool {
	f, ok := c.docs[uri]
	if !ok {
		return false
	}
	cur := contextElem
	for _, step := range strings.Split(path, "/") {
		if step == "" {
			return false // descendant step: never provably singleton here
		}
		if strings.HasPrefix(step, "@") {
			return true
		}
		if !f.singleton[cur+"/"+step] {
			return false
		}
		cur = step
	}
	return true
}

// SameNodeSet decides whether two descendant paths over the same document
// denote the same node set. Paths are given as element-name chains where the
// first element is reached via //: "//author" vs "//book/author".
//
// The decision procedure handles the paper's cases: identical chains are
// equal; a chain that is a suffix-extension of the other is equal iff every
// element of the shorter chain's head can only occur under the corresponding
// elements of the longer chain (parent-fact closure). Anything else is
// conservatively rejected.
func (c *Catalog) SameNodeSet(uri, pathA, pathB string) bool {
	f, ok := c.docs[uri]
	if !ok {
		return false
	}
	a := splitChain(pathA)
	b := splitChain(pathB)
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	// Ensure a is the shorter chain.
	if len(a) > len(b) {
		a, b = b, a
	}
	// Last elements must agree, and b must end with a.
	if a[len(a)-1] != b[len(b)-1] {
		return false
	}
	for i := 0; i < len(a); i++ {
		if a[len(a)-1-i] != b[len(b)-1-i] {
			return false
		}
	}
	// Every instance of a's head must sit under the chain prefix of b:
	// walking up from a's head, the only possible parents must be the next
	// element of b's chain.
	cur := a[0]
	for i := len(b) - len(a) - 1; i >= 0; i-- {
		parents, known := f.parents[cur]
		if !known || len(parents) != 1 || !parents[b[i]] {
			return false
		}
		cur = b[i]
	}
	return true
}

func splitChain(p string) []string {
	p = strings.TrimPrefix(p, "//")
	p = strings.TrimPrefix(p, "/")
	if p == "" {
		return nil
	}
	parts := strings.Split(p, "/")
	for _, s := range parts {
		if s == "" || strings.HasPrefix(s, "@") {
			return nil
		}
	}
	return parts
}

// UseCases returns a catalog pre-loaded with the DTDs of Fig. 5 (use cases
// XMP and R) and the DBLP-like DTD of the Sec. 5.1 experiment.
func UseCases() *Catalog {
	c := NewCatalog()

	bib := c.Doc("bib.xml")
	bib.Child("bib", "book", 0, -1)
	bib.Child("book", "title", 1, 1)
	bib.Child("book", "author", 0, -1)
	bib.Child("book", "editor", 0, -1)
	bib.Child("book", "publisher", 1, 1)
	bib.Child("book", "price", 1, 1)
	bib.Child("author", "last", 1, 1)
	bib.Child("author", "first", 1, 1)
	bib.Child("editor", "last", 1, 1)
	bib.Child("editor", "first", 1, 1)
	bib.Child("editor", "affiliation", 1, 1)
	bib.Attr("book", "year", true) // #REQUIRED in the use-case DTD

	reviews := c.Doc("reviews.xml")
	reviews.Child("reviews", "entry", 0, -1)
	reviews.Child("entry", "title", 1, 1)
	reviews.Child("entry", "price", 1, 1)
	reviews.Child("entry", "review", 1, 1)

	prices := c.Doc("prices.xml")
	prices.Child("prices", "book", 0, -1)
	prices.Child("book", "title", 1, 1)
	prices.Child("book", "source", 1, 1)
	prices.Child("book", "price", 1, 1)

	users := c.Doc("users.xml")
	users.Child("users", "usertuple", 0, -1)
	users.Child("usertuple", "userid", 1, 1)
	users.Child("usertuple", "name", 1, 1)
	users.Child("usertuple", "rating", 0, 1)

	items := c.Doc("items.xml")
	items.Child("items", "itemtuple", 0, -1)
	items.Child("itemtuple", "itemno", 1, 1)
	items.Child("itemtuple", "description", 1, 1)
	items.Child("itemtuple", "offered_by", 1, 1)
	items.Child("itemtuple", "startdate", 0, 1)
	items.Child("itemtuple", "enddate", 0, 1)
	items.Child("itemtuple", "reserveprice", 0, 1)

	bids := c.Doc("bids.xml")
	bids.Child("bids", "bidtuple", 0, -1)
	bids.Child("bidtuple", "userid", 1, 1)
	bids.Child("bidtuple", "itemno", 1, 1)
	bids.Child("bidtuple", "bid", 1, 1)
	bids.Child("bidtuple", "biddate", 1, 1)

	// DBLP: author elements occur under several publication kinds, so
	// //author ≠ //book/author — exactly the condition failure of Sec. 5.1.
	dblp := c.Doc("dblp.xml")
	for _, kind := range []string{"book", "article", "inproceedings", "phdthesis"} {
		dblp.Child("dblp", kind, 0, -1)
		dblp.Child(kind, "author", 1, -1)
		dblp.Child(kind, "title", 1, 1)
		dblp.Child(kind, "year", 1, 1)
	}
	dblp.Child("author", "last", 1, 1)
	dblp.Child("author", "first", 1, 1)

	return c
}
