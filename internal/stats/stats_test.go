package stats

import (
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
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

// TestResolvePathsAgainstEval: for a corpus of path expressions, the summed
// counts of the resolved measured paths equal the node count xpath.Path.Append
// selects from the document root — the partition property the planner's
// index substitution relies on.
func TestResolvePathsAgainstEval(t *testing.T) {
	doc := `<lib>
  <shelf><book year="1"><title>t1</title><note><title>n</title></note></book></shelf>
  <shelf><book year="2"><title>t2</title></book><journal><title>j</title></journal></shelf>
  <title>top</title>
</lib>`
	d := parse(t, doc)
	s := Analyze(d)
	exprs := []string{
		"/lib", "/lib/shelf", "/lib/shelf/book", "/lib/shelf/book/@year",
		"//title", "//book/title", "/lib//title", "//book//title",
		"//note", "/lib/*", "//*", "//shelf/*/title", "//@year",
		"/lib/missing", "//missing",
	}
	for _, e := range exprs {
		p := xpath.MustParse(e)
		paths, ok := s.ResolvePaths(p)
		if !ok {
			t.Fatalf("%s: not resolvable", e)
		}
		var sum int64
		for _, ap := range paths {
			sum += s.Path(ap).Count
		}
		got := len(p.Append(nil, value.NodeVal{Node: d.Root}))
		if int64(got) != sum {
			t.Errorf("%s: resolved count %d, the path selects %d (paths %v)", e, sum, got, paths)
		}
	}
}

func TestResolvePathsPositional(t *testing.T) {
	s := Analyze(parse(t, testDoc))
	if _, ok := s.ResolvePaths(xpath.MustParse("/bib/book[1]")); ok {
		t.Fatalf("positional predicate must be unresolvable")
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
}

// TestWalkMatchesAnalyze: the visitor-only Walk visits exactly the nodes
// AnalyzeVisit shows its visitor, in the same order.
func TestWalkMatchesAnalyze(t *testing.T) {
	d := parse(t, testDoc)
	var a, b []string
	rec := func(out *[]string) Visitor { return recorder{out} }
	AnalyzeVisit(d, rec(&a))
	Walk(d, rec(&b))
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("visit lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("visit %d: %q vs %q", i, a[i], b[i])
		}
	}
}

type recorder struct{ out *[]string }

func (r recorder) VisitElem(path string, n *dom.Node) { *r.out = append(*r.out, "e:"+path) }
func (r recorder) VisitAttr(path string, n *dom.Node) { *r.out = append(*r.out, "a:"+path) }

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

type noVisit struct{}

func (noVisit) VisitElem(string, *dom.Node) {}
func (noVisit) VisitAttr(string, *dom.Node) {}

// TestWalkAllocsFollowPaths: the walk builds each distinct path once, so
// its allocations follow the document's path set, not its node count —
// bib.xml at size 1 000 costs what size 100 does.
func TestWalkAllocsFollowPaths(t *testing.T) {
	walkAllocs := func(size int) float64 {
		d := xmlgen.Bib(xmlgen.DefaultConfig(size))
		return testing.AllocsPerRun(5, func() { Walk(d, noVisit{}) })
	}
	if small, large := walkAllocs(100), walkAllocs(1000); small != large {
		t.Fatalf("Walk made %.0f allocations at size 100 and %.0f at size 1 000", small, large)
	}
}
