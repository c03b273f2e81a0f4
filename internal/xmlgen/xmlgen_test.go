package xmlgen

import (
	"strings"
	"testing"
	"time"

	"nalquery/internal/dom"
)

func TestBibStructure(t *testing.T) {
	cfg := DefaultConfig(50)
	cfg.AuthorsPerBook = 3
	d := Bib(cfg)
	root := d.RootElement()
	if root.Name() != "bib" {
		t.Fatalf("root: %s", root.Name())
	}
	books := root.ChildElements("book")
	if len(books) != 50 {
		t.Fatalf("books: %d", len(books))
	}
	for _, b := range books {
		if b.Attr("year") == nil {
			t.Fatalf("book without year attribute")
		}
		if b.FirstChildElement("title") == nil || b.FirstChildElement("publisher") == nil ||
			b.FirstChildElement("price") == nil {
			t.Fatalf("book missing required children")
		}
		authors := b.ChildElements("author")
		if len(authors) != 3 {
			t.Fatalf("authors per book: %d", len(authors))
		}
		seen := map[string]bool{}
		for _, a := range authors {
			v := a.StringValue()
			if seen[v] {
				t.Fatalf("duplicate author within one book: %s", v)
			}
			seen[v] = true
			if a.FirstChildElement("last") == nil || a.FirstChildElement("first") == nil {
				t.Fatalf("author missing last/first")
			}
		}
	}
}

func TestBibDeterministic(t *testing.T) {
	a := dom.XMLString(Bib(DefaultConfig(30)).RootElement())
	b := dom.XMLString(Bib(DefaultConfig(30)).RootElement())
	if a != b {
		t.Fatalf("generation must be deterministic")
	}
	c := Bib(Config{Seed: 7, Books: 30, AuthorsPerBook: 2})
	if dom.XMLString(c.RootElement()) == a {
		t.Fatalf("different seeds must differ")
	}
}

func TestEveryAuthorHasABook(t *testing.T) {
	// The round-robin assignment guarantees the Eqv. 5 condition on the
	// generated bib documents: every pool author occurs in some book.
	cfg := DefaultConfig(100)
	d := Bib(cfg)
	var authors []*dom.Node
	authors = d.Root.Descendants("author", authors)
	distinct := map[string]bool{}
	for _, a := range authors {
		distinct[a.StringValue()] = true
	}
	if len(distinct) != 100 {
		t.Fatalf("distinct authors: %d, want %d", len(distinct), 100)
	}
}

func TestReviewsOverlapTitles(t *testing.T) {
	cfg := DefaultConfig(100)
	r := Reviews(cfg)
	entries := r.RootElement().ChildElements("entry")
	if len(entries) != 100 {
		t.Fatalf("entries: %d", len(entries))
	}
	matched := 0
	for _, e := range entries {
		title := e.FirstChildElement("title").StringValue()
		if strings.HasPrefix(title, "Title ") {
			matched++
		}
	}
	if matched == 0 || matched == len(entries) {
		t.Fatalf("review titles must partially overlap bib titles: %d/%d", matched, len(entries))
	}
}

func TestPricesQuotes(t *testing.T) {
	cfg := DefaultConfig(40)
	p := Prices(cfg)
	books := p.RootElement().ChildElements("book")
	if len(books) < 40 {
		t.Fatalf("price quotes: %d", len(books))
	}
	perTitle := map[string]int{}
	for _, b := range books {
		perTitle[b.FirstChildElement("title").StringValue()]++
	}
	if len(perTitle) != 40 {
		t.Fatalf("distinct titles: %d", len(perTitle))
	}
	multi := 0
	for _, n := range perTitle {
		if n > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatalf("min() needs titles with several quotes")
	}
}

func TestBidsReferenceItems(t *testing.T) {
	cfg := DefaultConfig(200)
	items := Items(cfg)
	bids := Bids(cfg)
	valid := map[string]bool{}
	for _, it := range items.RootElement().ChildElements("itemtuple") {
		valid[it.FirstChildElement("itemno").StringValue()] = true
	}
	if len(valid) != 40 { // bids/5
		t.Fatalf("items: %d", len(valid))
	}
	popular := map[string]int{}
	for _, b := range bids.RootElement().ChildElements("bidtuple") {
		no := b.FirstChildElement("itemno").StringValue()
		if !valid[no] {
			t.Fatalf("bid references unknown item %s", no)
		}
		popular[no]++
	}
	// The skew must make count>=3 non-trivial.
	ge3 := 0
	for _, n := range popular {
		if n >= 3 {
			ge3++
		}
	}
	if ge3 == 0 || ge3 == len(popular) {
		t.Fatalf("bid skew degenerate: %d/%d items with >=3 bids", ge3, len(popular))
	}
}

func TestUsersStructure(t *testing.T) {
	cfg := DefaultConfig(100)
	u := Users(cfg)
	uts := u.RootElement().ChildElements("usertuple")
	if len(uts) != 10 {
		t.Fatalf("users: %d", len(uts))
	}
	for _, ut := range uts {
		if ut.FirstChildElement("userid") == nil || ut.FirstChildElement("name") == nil {
			t.Fatalf("usertuple incomplete")
		}
	}
}

func TestDBLPHasAuthorsWithoutBooks(t *testing.T) {
	d := DBLP(DBLPConfig{Seed: 1, Publications: 400})
	root := d.RootElement()
	bookAuthors := map[string]bool{}
	allAuthors := map[string]bool{}
	for _, pub := range root.ChildElements("") {
		for _, a := range pub.ChildElements("author") {
			allAuthors[a.StringValue()] = true
			if pub.Name() == "book" {
				bookAuthors[a.StringValue()] = true
			}
		}
	}
	if len(allAuthors) <= len(bookAuthors) {
		t.Fatalf("DBLP must contain authors without books: all=%d book=%d",
			len(allAuthors), len(bookAuthors))
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{Books: 10, Bids: 10}.normalize()
	if c.Items == 0 || c.Users == 0 || c.AuthorPool != 10 || c.AuthorsPerBook == 0 {
		t.Fatalf("normalize: %+v", c)
	}
	// Tiny configs must not divide to zero.
	c2 := Config{Books: 1, Bids: 1}.normalize()
	if c2.Items == 0 || c2.Users == 0 {
		t.Fatalf("tiny config: %+v", c2)
	}
}

// TestMoreAuthorsPerBookThanThePoolReturns: a book cannot name more
// distinct authors than the pool holds, so a configuration asking for more
// (DefaultConfig(1) keeps two authors per book over a pool of one) gets
// every pool member once per book instead of a generator that never
// returns.
func TestMoreAuthorsPerBookThanThePoolReturns(t *testing.T) {
	for _, c := range []struct{ books, apb, want int }{{1, 2, 1}, {3, 5, 3}, {4, 4, 4}} {
		cfg := DefaultConfig(c.books)
		cfg.AuthorsPerBook = c.apb
		done := make(chan *dom.Document, 1)
		go func() { done <- Bib(cfg) }()
		select {
		case d := <-done:
			for _, b := range d.RootElement().ChildElements("book") {
				if n := len(b.ChildElements("author")); n != c.want {
					t.Errorf("%d books, %d authors per book: a book has %d authors, want %d", c.books, c.apb, n, c.want)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Bib with %d books and %d authors per book did not return", c.books, c.apb)
		}
	}
}

func TestGeneratedDocumentsParseBack(t *testing.T) {
	cfg := DefaultConfig(20)
	for _, d := range []*dom.Document{Bib(cfg), Reviews(cfg), Prices(cfg), Users(cfg), Items(cfg), Bids(cfg)} {
		s := dom.XMLString(d.RootElement())
		if _, err := dom.ParseString(s, d.URI); err != nil {
			t.Errorf("%s does not re-parse: %v", d.URI, err)
		}
	}
}
