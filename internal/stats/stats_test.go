package stats

import (
	"slices"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/xmlgen"
	"nalquery/internal/xpath"
)

const testDoc = `<bib>
  <book year="2000"><title>B</title><author><last>L1</last></author><price>10.5</price></book>
  <book year="1999"><title>A</title><author><last>L2</last></author><author><last>L1</last></author><price>20</price></book>
  <book year="2000"><title>C</title><price>7</price></book>
</bib>`

func parse(t *testing.T, s string) *dom.Document {
	t.Helper()
	d, err := dom.Parse(strings.NewReader(s), "test.xml")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

func TestAnalyzeCounts(t *testing.T) {
	s := Analyze(parse(t, testDoc))
	if s.Elements != 16 {
		t.Fatalf("elements = %d, want 16", s.Elements)
	}
	want := map[string]int64{
		"/bib":                  1,
		"/bib/book":             3,
		"/bib/book/@year":       3,
		"/bib/book/title":       3,
		"/bib/book/author":      3,
		"/bib/book/author/last": 3,
		"/bib/book/price":       3,
	}
	if len(s.Paths) != len(want) {
		t.Fatalf("got %d paths, want %d: %+v", len(s.Paths), len(want), s.Paths)
	}
	for p, n := range want {
		ps := s.Path(p)
		if ps == nil || ps.Count != n {
			t.Errorf("count(%s) = %+v, want %d", p, ps, n)
		}
	}
}

func TestAnalyzeValueLayer(t *testing.T) {
	s := Analyze(parse(t, testDoc))

	title := s.Path("/bib/book/title")
	if !title.Simple || title.Distinct != 3 || title.Min != "A" || title.Max != "C" {
		t.Fatalf("title stats: %+v", title)
	}
	if title.AllNumeric {
		t.Fatalf("title should not be numeric")
	}

	price := s.Path("/bib/book/price")
	if !price.AllNumeric || price.MinNum != 7 || price.MaxNum != 20 {
		t.Fatalf("price numeric stats: %+v", price)
	}

	year := s.Path("/bib/book/@year")
	if !year.Simple || year.Distinct != 2 || !year.AllNumeric {
		t.Fatalf("year stats: %+v", year)
	}

	// book has element children in every occurrence: structural, no values.
	book := s.Path("/bib/book")
	if book.Simple || book.Distinct != 0 || book.Min != "" {
		t.Fatalf("book should be structural: %+v", book)
	}
	if book.AvgFanout != 3 { // (3+4+2)/3 element children
		t.Fatalf("book fanout = %v", book.AvgFanout)
	}
}

// TestAnalyzeMixedContent: a path that is a leaf in one occurrence and
// structural in another carries no value layer.
func TestAnalyzeMixedContent(t *testing.T) {
	s := Analyze(parse(t, `<r><a>text</a><a><b>x</b></a></r>`))
	a := s.Path("/r/a")
	if a.Simple || a.Distinct != 0 {
		t.Fatalf("mixed path must drop the value layer: %+v", a)
	}
}

func TestDocOrderExtents(t *testing.T) {
	d := parse(t, testDoc)
	s := Analyze(d)
	book := s.Path("/bib/book")
	if book.FirstOrder >= book.LastOrder {
		t.Fatalf("extent: [%d, %d]", book.FirstOrder, book.LastOrder)
	}
	// The root's extent starts before every book.
	if s.Path("/bib").FirstOrder >= book.FirstOrder {
		t.Fatalf("root order %d not before first book %d", s.Path("/bib").FirstOrder, book.FirstOrder)
	}
}

func TestSuffixCount(t *testing.T) {
	s := Analyze(parse(t, testDoc))
	if n, ok := s.SuffixCount(xpath.MustParse("author")); !ok || n != 3 {
		t.Fatalf("SuffixCount(author) = %v, %v", n, ok)
	}
	if n, ok := s.SuffixCount(xpath.MustParse("author/last")); !ok || n != 3 {
		t.Fatalf("SuffixCount(author/last) = %v, %v", n, ok)
	}
	if n, ok := s.SuffixCount(xpath.MustParse("book/title")); !ok || n != 3 {
		t.Fatalf("SuffixCount(book/title) = %v, %v", n, ok)
	}
	if n, _ := s.SuffixCount(xpath.MustParse("nope")); n != 0 {
		t.Fatalf("SuffixCount(nope) = %v", n)
	}
	if n, ok := s.SuffixCount(xpath.MustParse("@year")); !ok || n != 3 {
		t.Fatalf("SuffixCount(@year) = %v, %v", n, ok)
	}
	if _, ok := s.SuffixCount(xpath.MustParse("book[1]")); ok {
		t.Fatalf("a positional predicate must not resolve")
	}
}

// TestWalkMatchesAnalyze: the walk numbers the same paths whether or not it
// measures, every element and attribute gets the id of its absolute path
// (the document node and text nodes get 0), and what it measures is what
// Analyze returns.
func TestWalkMatchesAnalyze(t *testing.T) {
	d := parse(t, testDoc)
	bare, none := Walk(d, false)
	table, measured := Walk(d, true)
	if none != nil {
		t.Fatalf("a walk that does not measure returned statistics")
	}
	if !slices.Equal(bare.Path, table.Path) || !slices.Equal(bare.Of, table.Of) {
		t.Fatalf("measuring changed the path table")
	}
	for r, id := range table.Of {
		n := d.Node(r)
		want := ""
		for a := n; a.Parent() != nil && n.Kind() != dom.KindText; a = a.Parent() {
			sep := "/"
			if a.Kind() == dom.KindAttribute {
				sep = "/@"
			}
			want = sep + a.Name() + want
		}
		if got := table.Path[id]; got != want {
			t.Errorf("rank %d (%s): path %q, want %q", r, n.Name(), got, want)
		}
	}
	a := Analyze(d)
	if measured.Elements != a.Elements || len(measured.Paths) != len(a.Paths) || len(table.Path) != len(a.Paths)+1 {
		t.Fatalf("Walk measured %d elements over %d paths (%d numbered), Analyze %d over %d",
			measured.Elements, len(measured.Paths), len(table.Path)-1, a.Elements, len(a.Paths))
	}
	for i, p := range a.Paths {
		if *measured.Paths[i] != *p {
			t.Errorf("path %s: Walk measured %+v, Analyze %+v", p.Path, *measured.Paths[i], *p)
		}
	}
}

// TestFromPathsRoundtrip: reconstructing a DocStats from its path entries
// (the NALB2 load path) preserves lookups and ordering.
func TestFromPathsRoundtrip(t *testing.T) {
	s := Analyze(parse(t, testDoc))
	// Reverse the slice to prove FromPaths re-sorts.
	rev := make([]*PathStats, len(s.Paths))
	for i, p := range s.Paths {
		rev[len(rev)-1-i] = p
	}
	r := FromPaths(s.URI, s.Elements, rev)
	if r.Elements != s.Elements || len(r.Paths) != len(s.Paths) {
		t.Fatalf("roundtrip lost shape")
	}
	for i, p := range s.Paths {
		if r.Paths[i].Path != p.Path {
			t.Fatalf("order not restored at %d: %s vs %s", i, r.Paths[i].Path, p.Path)
		}
		if r.Path(p.Path) != p {
			t.Fatalf("lookup of %s broken", p.Path)
		}
	}
}

// TestWalkAllocsFollowPaths: the walk builds each distinct path once and
// its table's per-rank ids in one array, so its allocations follow the
// document's path set, not its node count — bib.xml at size 1 000 costs
// what size 100 does.
func TestWalkAllocsFollowPaths(t *testing.T) {
	walkAllocs := func(size int) float64 {
		d := xmlgen.Bib(xmlgen.DefaultConfig(size))
		return testing.AllocsPerRun(5, func() { Walk(d, false) })
	}
	if small, large := walkAllocs(100), walkAllocs(1000); small != large {
		t.Fatalf("Walk made %.0f allocations at size 100 and %.0f at size 1 000", small, large)
	}
}
