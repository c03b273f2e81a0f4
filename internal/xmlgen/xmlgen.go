// Package xmlgen generates the synthetic XML documents of the paper's
// evaluation. It replaces ToXgene: documents follow the DTDs of the XQuery
// use-case document reproduced in Fig. 5 of the paper (use case XMP: bib,
// reviews, prices; use case R: users, items, bids) and a DBLP-like
// heterogeneous bibliography for the Sec. 5.1 large-document experiment.
//
// Generation is fully deterministic for a given configuration (seeded
// math/rand), so measurements and tests are reproducible.
package xmlgen

import (
	"fmt"
	"math/rand"

	"nalquery/internal/dom"
)

// Config controls document generation. The zero value is not useful; use
// DefaultConfig.
type Config struct {
	// Seed for the deterministic random source.
	Seed int64
	// Books is the number of book elements (bib.xml, prices.xml) and entry
	// elements (reviews.xml).
	Books int
	// AuthorsPerBook is the number of author elements per book (the paper
	// varies 2, 5, 10), at most AuthorPool: a book names each author once.
	AuthorsPerBook int
	// AuthorPool is the number of distinct authors. The paper's Q1 document
	// contains as many authors as books; 0 means Books.
	AuthorPool int
	// Bids is the number of bidtuple elements in bids.xml.
	Bids int
	// Items is the number of itemtuple elements; 0 means Bids/5 (the paper's
	// ratio in Sec. 5.6).
	Items int
	// Users is the number of usertuple elements; 0 means max(Bids/10, 1).
	Users int
	// ReviewFraction is the fraction (0..100) of bib titles that also have a
	// review entry; the remaining entries review unknown titles. 50 by
	// default.
	ReviewFraction int
	// Zipf, when > 1, skews key-valued draws (author picks in bib.xml, item
	// references in bids.xml) by a zipfian distribution with this exponent —
	// a few hot keys dominate, so value-index probe selectivities vary
	// wildly across keys. 0 keeps the uniform draws.
	Zipf float64
}

// DefaultConfig returns the configuration for one paper measurement point.
func DefaultConfig(size int) Config {
	return Config{
		Seed:           42,
		Books:          size,
		AuthorsPerBook: 2,
		Bids:           size,
		ReviewFraction: 50,
	}
}

func (c Config) normalize() Config {
	if c.AuthorPool == 0 {
		c.AuthorPool = c.Books
	}
	if c.Items == 0 {
		c.Items = c.Bids / 5
		if c.Items == 0 {
			c.Items = 1
		}
	}
	if c.Users == 0 {
		c.Users = c.Bids / 10
		if c.Users == 0 {
			c.Users = 1
		}
	}
	if c.AuthorsPerBook == 0 {
		c.AuthorsPerBook = 2
	}
	// A book names each author once, so it has at most the pool's.
	c.AuthorsPerBook = min(c.AuthorsPerBook, c.AuthorPool)
	if c.ReviewFraction == 0 {
		c.ReviewFraction = 50
	}
	return c
}

func authorName(i int) (last, first string) {
	// A sprinkling of authors named Suciu keeps the Sec. 5.4 contains()
	// predicate selective but non-empty. First names stay unique, so full
	// author names remain distinct.
	if i%41 == 7 {
		return "Suciu", fmt.Sprintf("First%d", i)
	}
	return fmt.Sprintf("Last%d", i), fmt.Sprintf("First%d", i)
}

func bookTitle(i int) string { return fmt.Sprintf("Title %d", i) }

// zipfOf builds the zipfian source for an n-key draw, or nil for uniform.
func zipfOf(c Config, rng *rand.Rand, n int) *rand.Zipf {
	if c.Zipf <= 1 || n < 2 {
		return nil
	}
	return rand.NewZipf(rng, c.Zipf, 1, uint64(n-1))
}

// draw returns a random index in [0, n): uniform, or skewed toward low
// indexes when a zipfian source is given.
func draw(rng *rand.Rand, z *rand.Zipf, n int) int {
	if z != nil {
		return int(z.Uint64()) % n
	}
	return rng.Intn(n)
}

// Bib generates bib.xml: books with title, author+ (drawn from the author
// pool), publisher, price and a year attribute in [1990, 2003].
func Bib(c Config) *dom.Document {
	c = c.normalize()
	rng := rand.New(rand.NewSource(c.Seed))
	zipf := zipfOf(c, rng, c.AuthorPool)
	b := dom.NewBuilder("bib.xml")
	b.Begin("bib")
	for i := 0; i < c.Books; i++ {
		year := 1990 + rng.Intn(14)
		b.Begin("book").Attrib("year", fmt.Sprintf("%d", year))
		b.Element("title", bookTitle(i))
		// Every author pool member authors at least one book when the pool
		// is no larger than Books*AuthorsPerBook: assign round-robin plus
		// random extras, matching the paper's "books and authors" scaling.
		seen := map[int]bool{}
		for a := 0; a < c.AuthorsPerBook; a++ {
			var idx int
			if a == 0 {
				idx = i % c.AuthorPool
			} else {
				idx = draw(rng, zipf, c.AuthorPool)
			}
			for seen[idx] {
				idx = (idx + 1) % c.AuthorPool
			}
			seen[idx] = true
			last, first := authorName(idx)
			b.Begin("author")
			b.Element("last", last)
			b.Element("first", first)
			b.End()
		}
		b.Element("publisher", fmt.Sprintf("Publisher %d", rng.Intn(20)))
		b.Element("price", fmt.Sprintf("%d.%02d", 10+rng.Intn(90), rng.Intn(100)))
		b.End()
	}
	b.End()
	return b.Done()
}

// Reviews generates reviews.xml: entries with title, price and review text.
// ReviewFraction percent of the entries reference existing bib titles.
func Reviews(c Config) *dom.Document {
	c = c.normalize()
	rng := rand.New(rand.NewSource(c.Seed + 1))
	b := dom.NewBuilder("reviews.xml")
	b.Begin("reviews")
	for i := 0; i < c.Books; i++ {
		b.Begin("entry")
		if rng.Intn(100) < c.ReviewFraction {
			b.Element("title", bookTitle(rng.Intn(c.Books)))
		} else {
			b.Element("title", fmt.Sprintf("Unlisted Title %d", i))
		}
		b.Element("price", fmt.Sprintf("%d.%02d", 10+rng.Intn(90), rng.Intn(100)))
		b.Element("review", fmt.Sprintf("Review text %d: a thorough discussion.", i))
		b.End()
	}
	b.End()
	return b.Done()
}

// Prices generates prices.xml: books with title, source and price. Every bib
// title appears with one to three price quotes from different sources, so
// min-price grouping has non-trivial groups.
func Prices(c Config) *dom.Document {
	c = c.normalize()
	rng := rand.New(rand.NewSource(c.Seed + 2))
	b := dom.NewBuilder("prices.xml")
	b.Begin("prices")
	for i := 0; i < c.Books; i++ {
		quotes := 1 + rng.Intn(3)
		for q := 0; q < quotes; q++ {
			b.Begin("book")
			b.Element("title", bookTitle(i))
			b.Element("source", fmt.Sprintf("source%d.example.com", q))
			b.Element("price", fmt.Sprintf("%d.%02d", 10+rng.Intn(90), rng.Intn(100)))
			b.End()
		}
	}
	b.End()
	return b.Done()
}

// Users generates users.xml for use case R.
func Users(c Config) *dom.Document {
	c = c.normalize()
	rng := rand.New(rand.NewSource(c.Seed + 3))
	b := dom.NewBuilder("users.xml")
	b.Begin("users")
	for i := 0; i < c.Users; i++ {
		b.Begin("usertuple")
		b.Element("userid", fmt.Sprintf("U%02d", i))
		b.Element("name", fmt.Sprintf("User Name %d", i))
		if rng.Intn(2) == 0 {
			b.Element("rating", string(rune('A'+rng.Intn(5))))
		}
		b.End()
	}
	b.End()
	return b.Done()
}

// Items generates items.xml for use case R.
func Items(c Config) *dom.Document {
	c = c.normalize()
	rng := rand.New(rand.NewSource(c.Seed + 4))
	b := dom.NewBuilder("items.xml")
	b.Begin("items")
	for i := 0; i < c.Items; i++ {
		b.Begin("itemtuple")
		b.Element("itemno", fmt.Sprintf("%d", 1000+i))
		b.Element("description", fmt.Sprintf("Item description %d", i))
		b.Element("offered_by", fmt.Sprintf("U%02d", rng.Intn(c.Users)))
		if rng.Intn(2) == 0 {
			b.Element("startdate", fmt.Sprintf("1999-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28)))
		}
		if rng.Intn(2) == 0 {
			b.Element("enddate", fmt.Sprintf("1999-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28)))
		}
		if rng.Intn(3) == 0 {
			b.Element("reserveprice", fmt.Sprintf("%d", 10+rng.Intn(400)))
		}
		b.End()
	}
	b.End()
	return b.Done()
}

// Bids generates bids.xml for use case R. Bids reference the item numbers of
// Items(c); item popularity is skewed so that the count >= 3 predicate of
// Query 1.4.4.14 selects a non-trivial subset.
func Bids(c Config) *dom.Document {
	c = c.normalize()
	rng := rand.New(rand.NewSource(c.Seed + 5))
	zipf := zipfOf(c, rng, c.Items)
	b := dom.NewBuilder("bids.xml")
	b.Begin("bids")
	for i := 0; i < c.Bids; i++ {
		// Default skew: half the bids hit the first fifth of the items. A
		// configured zipfian exponent sharpens this into true hot keys.
		var item int
		switch {
		case zipf != nil:
			item = draw(rng, zipf, c.Items)
		case rng.Intn(2) == 0:
			item = rng.Intn(max(c.Items/5, 1))
		default:
			item = rng.Intn(c.Items)
		}
		b.Begin("bidtuple")
		b.Element("userid", fmt.Sprintf("U%02d", rng.Intn(c.Users)))
		b.Element("itemno", fmt.Sprintf("%d", 1000+item))
		b.Element("bid", fmt.Sprintf("%d", 10+rng.Intn(400)))
		b.Element("biddate", fmt.Sprintf("1999-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28)))
		b.End()
	}
	b.End()
	return b.Done()
}

// DBLPConfig configures the DBLP-like heterogeneous bibliography of the
// Sec. 5.1 large-document experiment.
type DBLPConfig struct {
	Seed int64
	// Publications is the total number of publication elements.
	Publications int
	// BookFraction is the percentage of publications that are books; the
	// rest are articles and theses, whose authors may never author a book —
	// exactly the situation in which Eqv. 5's condition fails (Sec. 5.1).
	BookFraction int
	// AuthorPool is the number of distinct authors.
	AuthorPool int
}

// DBLP generates dblp.xml: a flat sequence of publications (book, article,
// inproceedings, phdthesis) each carrying author children, a title and a
// year. Authors of non-book publications need not author any book.
func DBLP(c DBLPConfig) *dom.Document {
	if c.Publications == 0 {
		c.Publications = 1000
	}
	if c.BookFraction == 0 {
		c.BookFraction = 20
	}
	if c.AuthorPool == 0 {
		c.AuthorPool = c.Publications / 2
	}
	if c.AuthorPool == 0 {
		c.AuthorPool = 1
	}
	rng := rand.New(rand.NewSource(c.Seed + 7))
	kinds := []string{"article", "inproceedings", "phdthesis"}
	b := dom.NewBuilder("dblp.xml")
	b.Begin("dblp")
	for i := 0; i < c.Publications; i++ {
		kind := "book"
		if rng.Intn(100) >= c.BookFraction {
			kind = kinds[rng.Intn(len(kinds))]
		}
		b.Begin(kind)
		authors := 1 + rng.Intn(3)
		for a := 0; a < authors; a++ {
			idx := rng.Intn(c.AuthorPool)
			last, first := authorName(idx)
			b.Begin("author")
			b.Element("last", last)
			b.Element("first", first)
			b.End()
		}
		b.Element("title", fmt.Sprintf("Publication %d", i))
		b.Element("year", fmt.Sprintf("%d", 1980+rng.Intn(24)))
		b.End()
	}
	b.End()
	return b.Done()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
