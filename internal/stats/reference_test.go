package stats

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/qgen"
	"nalquery/internal/value"
	"nalquery/internal/xmlgen"
)

// analyzeReference is the analyzer's definitional form: per path a map of
// the distinct leaf strings, and ParseNumber on every value. The walk's
// value pass reads the atom words and counts distinct strings through one
// key table instead; TestValuePassMatchesReference holds the two to the
// same DocStats.
func analyzeReference(d *dom.Document) *DocStats {
	t, _ := Walk(d, false)
	m := &refMeasurer{s: &DocStats{URI: d.URI, byPath: map[string]*PathStats{}}, paths: t}
	for i := 1; i < d.NumNodes(); i++ {
		if c := d.Node(i); c.Kind() == dom.KindElement {
			m.elem(t.Of[i], c)
		}
	}
	return m.done()
}

// refMeasurer accumulates the statistics of one walk, by path id.
type refMeasurer struct {
	s     *DocStats
	paths *PathTable
	accs  []*refAcc
}

// refAcc is the per-path accumulator of one walk.
type refAcc struct {
	st       *PathStats
	fanout   int64
	notLeaf  bool
	values   map[string]struct{}
	numeric  bool
	sawValue bool
}

// acc counts node n at path id and returns the path's accumulator.
func (m *refMeasurer) acc(id int32, n *dom.Node) *refAcc {
	for int(id) >= len(m.accs) {
		m.accs = append(m.accs, nil)
	}
	a := m.accs[id]
	if a == nil {
		path := m.paths.Path[id]
		a = &refAcc{st: &PathStats{Path: path, FirstOrder: n.Order()}, numeric: true}
		m.accs[id] = a
		m.s.byPath[path] = a.st
		m.s.Paths = append(m.s.Paths, a.st)
	}
	a.st.Count++
	a.st.LastOrder = n.Order()
	return a
}

// elem measures element c at path id and its attributes: counts, the
// element's fanout, and leaf text.
func (m *refMeasurer) elem(id int32, c *dom.Node) {
	m.s.Elements++
	a := m.acc(id, c)
	for at := c.FirstAttr(); at != nil; at = at.NextSibling() {
		m.acc(m.paths.Of[at.Order()], at).value(at.Data())
	}
	elemKids := int64(0)
	for cc := c.FirstChild(); cc != nil; cc = cc.NextSibling() {
		if cc.Kind() == dom.KindElement {
			elemKids++
		}
	}
	a.fanout += elemKids
	if elemKids > 0 {
		a.notLeaf = true
	} else {
		a.value(c.StringValue())
	}
}

// done finishes every path's statistics and returns the document's.
func (m *refMeasurer) done() *DocStats {
	for _, a := range m.accs {
		if a == nil {
			continue
		}
		if a.st.Count > 0 {
			a.st.AvgFanout = float64(a.fanout) / float64(a.st.Count)
		}
		a.st.Simple = !a.notLeaf
		if a.st.Simple && a.sawValue {
			a.st.Distinct = int64(len(a.values))
			a.st.AllNumeric = a.numeric
		} else {
			a.st.Distinct, a.st.Min, a.st.Max = 0, "", ""
			a.st.AllNumeric, a.st.MinNum, a.st.MaxNum = false, 0, 0
		}
	}
	m.s.sortPaths()
	return m.s
}

// value folds one leaf string value into the accumulator.
func (a *refAcc) value(val string) {
	if a.values == nil {
		a.values = map[string]struct{}{}
	}
	a.values[val] = struct{}{}
	if !a.sawValue || val < a.st.Min {
		a.st.Min = val
	}
	if !a.sawValue || val > a.st.Max {
		a.st.Max = val
	}
	if a.numeric {
		if f, ok := dom.ParseNumber(val); ok {
			if !a.sawValue || f < a.st.MinNum {
				a.st.MinNum = f
			}
			if !a.sawValue || f > a.st.MaxNum {
				a.st.MaxNum = f
			}
		} else {
			a.numeric = false
			a.st.MinNum, a.st.MaxNum = 0, 0
		}
	}
	a.sawValue = true
}

// edgeValuesDoc holds the values the atom word and the distinct count must
// tell apart: spellings of one number (1995, 1995.0, " 7" and 7), -0 beside
// 0, NaN (never first on its path, so the numeric extremes stay comparable),
// values longer than dom.AtomCutoff (numeric and not), empty leaves, a path
// that is a leaf in one place and inner in another, and attributes.
var edgeValuesDoc = `<r>
  <y n="1995">1995</y><y n="1995.0">1995.0</y><y n=" 7"> 7</y><y n="7">7</y>
  <z>0</z><z>-0</z><z>0</z><z>NaN</z><z>-0</z><v>-0</v><v>0</v>
  <w>5</w><w>NaN</w><w>-7</w><w>+Inf</w>
  <long>` + strings.Repeat("9", 70) + `</long><long>` + strings.Repeat("9", 69) + `.5</long><long>3</long>
  <text>` + strings.Repeat("x", 80) + `</text><text>` + strings.Repeat("x", 80) + `</text><text>short</text>
  <e/><e></e><e>1</e><e/>
  <m>leaf</m><m><k>inner</k></m><m>leaf</m>
  <a p="1" q="text" r=""><b p="2"/></a><a p="1.50" q="" r="3"/>
</r>`

// referenceDocs are the documents the value pass is held to the reference
// on: the six use-case documents and DBLP at four sizes, the differential
// sweep's corpus, and edgeValuesDoc.
func referenceDocs(t *testing.T) []*dom.Document {
	t.Helper()
	var docs []*dom.Document
	useCase := func(size, apb int) {
		c := xmlgen.DefaultConfig(size)
		c.AuthorsPerBook = apb
		docs = append(docs, xmlgen.Bib(c), xmlgen.Reviews(c), xmlgen.Prices(c),
			xmlgen.Users(c), xmlgen.Items(c), xmlgen.Bids(c))
	}
	for _, size := range []int{2, 7, 100, 1000} {
		useCase(size, 2)
		docs = append(docs, xmlgen.DBLP(xmlgen.DBLPConfig{Seed: 42, Publications: size}))
	}
	useCase(qgen.DocSizes())
	return append(docs, parse(t, edgeValuesDoc))
}

// TestValuePassMatchesReference: the walk's value pass measures exactly
// what the map-and-ParseNumber reference does — reflect.DeepEqual over
// whole DocStats, and the numeric extremes bit for bit, so -0 stays -0 —
// under two forced key seeds.
func TestValuePassMatchesReference(t *testing.T) {
	docs := referenceDocs(t)
	for _, seed := range []uint64{0, 0x9e3779b97f4a7c15} {
		old := value.SetKeySeed(seed)
		for _, d := range docs {
			got, want := Analyze(d), analyzeReference(d)
			if !reflect.DeepEqual(got, want) {
				for i, p := range want.Paths {
					if i < len(got.Paths) && *got.Paths[i] != *p {
						t.Errorf("seed %#x, %s %s: got %+v, want %+v", seed, d.URI, p.Path, *got.Paths[i], *p)
					}
				}
				t.Fatalf("seed %#x, %s: DocStats differ (%d elements, %d paths; want %d, %d)",
					seed, d.URI, got.Elements, len(got.Paths), want.Elements, len(want.Paths))
			}
			for i, p := range want.Paths {
				g := got.Paths[i]
				if math.Float64bits(g.MinNum) != math.Float64bits(p.MinNum) ||
					math.Float64bits(g.MaxNum) != math.Float64bits(p.MaxNum) {
					t.Errorf("seed %#x, %s %s: numeric extremes %v..%v, want %v..%v",
						seed, d.URI, p.Path, g.MinNum, g.MaxNum, p.MinNum, p.MaxNum)
				}
			}
		}
		value.SetKeySeed(old)
	}
}

// TestEdgeValuesAreSeen: edgeValuesDoc reaches the cases it is written for,
// so the reference comparison above is not vacuous there.
func TestEdgeValuesAreSeen(t *testing.T) {
	s := Analyze(parse(t, edgeValuesDoc))
	checks := []struct {
		path     string
		distinct int64
		numeric  bool
	}{
		{"/r/y", 4, true},      // four spellings, two numbers
		{"/r/y/@n", 4, true},   // the same in attributes
		{"/r/z", 3, true},      // 0, -0, NaN
		{"/r/v", 2, true},      // -0 first: the extremes are -0
		{"/r/long", 3, true},   // past AtomCutoff: parsed again
		{"/r/text", 2, false},  // past AtomCutoff: hashed again
		{"/r/e", 2, false},     // empty leaves are the empty string
		{"/r/a/@q", 2, false},  // an empty attribute
		{"/r/a/b/@p", 1, true}, // an attribute below an attribute-bearing element
		{"/r/m", 0, false},     // a leaf here, inner there: no value layer
		{"/r/m/k", 1, false},   // the inner occurrence's leaf
		{"/r/w", 4, true},      // NaN after a number leaves the extremes alone
		{"/r/a/@r", 2, false},  // "" and 3
		{"/r/a/@p", 2, true},   // 1 and 1.50
		{"/r", 0, false},       // structural
	}
	for _, c := range checks {
		p := s.Path(c.path)
		if p == nil || p.Distinct != c.distinct || p.AllNumeric != c.numeric {
			t.Errorf("%s: %+v, want distinct %d, numeric %v", c.path, p, c.distinct, c.numeric)
		}
	}
	if z := s.Path("/r/z"); math.Float64bits(z.MinNum) != math.Float64bits(0) || z.MaxNum != 0 {
		t.Errorf("/r/z extremes %v..%v, want 0..0 (the first value sets both)", z.MinNum, z.MaxNum)
	}
	if v := s.Path("/r/v"); !math.Signbit(v.MinNum) || !math.Signbit(v.MaxNum) {
		t.Errorf("/r/v extremes %v..%v, want -0..-0", v.MinNum, v.MaxNum)
	}
	if w := s.Path("/r/w"); w.MinNum != -7 || !math.IsInf(w.MaxNum, 1) {
		t.Errorf("/r/w extremes %v..%v, want -7..+Inf", w.MinNum, w.MaxNum)
	}
}

// TestDistinctConfirmsByString: two different texts whose 32-bit text
// hashes agree share a key hash, so only the string comparison keeps them
// apart. A birthday search finds such a pair under this process's seed.
func TestDistinctConfirmsByString(t *testing.T) {
	seen := map[uint32]int{}
	var a, b string
	for i := 0; i < 1<<20 && a == ""; i++ {
		s := fmt.Sprintf("c%d", i)
		h := dom.TextHash(s)
		if j, ok := seen[h]; ok {
			a, b = fmt.Sprintf("c%d", j), s
		}
		seen[h] = i
	}
	if a == "" {
		t.Skip("no text hash collision among 2^20 texts")
	}
	d := parse(t, "<r><v>"+a+"</v><v>"+b+"</v><v>"+a+"</v></r>")
	if got := Analyze(d).Path("/r/v").Distinct; got != 2 {
		t.Fatalf("%q and %q share a text hash: Distinct %d, want 2", a, b, got)
	}
	if got, want := Analyze(d), analyzeReference(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("DocStats differ from the reference")
	}
}
