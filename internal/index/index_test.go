package index

import (
	"slices"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/stats"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

const testDoc = `<lib>
  <shelf><book year="1999"><title>t1</title><note><title>n</title></note></book></shelf>
  <shelf><book year="2001"><title>t2</title></book><journal><title>t1</title></journal></shelf>
  <title>top</title>
</lib>`

func parse(t *testing.T, s string) *dom.Document {
	t.Helper()
	d, err := dom.Parse(strings.NewReader(s), "test.xml")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

// TestScanAgainstEval: for a corpus of path expressions, Scan enumerates
// exactly the nodes xpath.Path.Append selects from the root, in the same
// (document) order.
func TestScanAgainstEval(t *testing.T) {
	d := parse(t, testDoc)
	x := Build(d)
	exprs := []string{
		"/lib", "/lib/shelf", "/lib/shelf/book", "/lib/shelf/book/@year",
		"//title", "//book/title", "/lib//title", "//book//title",
		"/lib/*", "//*", "//shelf/*/title",
	}
	for _, e := range exprs {
		p := xpath.MustParse(e)
		si, ok := x.Scan(p)
		if !ok {
			t.Fatalf("%s: no scan resolution", e)
		}
		want := p.Append(nil, value.NodeVal{Node: d.Root})
		got := si.Index.ScanAll()
		if len(got) != len(want) {
			t.Fatalf("%s: %d nodes, the path selects %d", e, len(got), len(want))
		}
		if si.Index.Doc() != d {
			t.Fatalf("%s: the index ranks another document", e)
		}
		for i, r := range got {
			if want[i] != d.Node(int(r)) {
				t.Fatalf("%s: node %d differs", e, i)
			}
		}
		if si.Card != float64(len(got)) {
			t.Fatalf("%s: card %v for %d nodes", e, si.Card, len(got))
		}
	}
	// Unresolvable shapes: positional predicate, unknown path.
	if _, ok := x.Scan(xpath.MustParse("/lib/shelf[1]")); ok {
		t.Fatalf("positional scan must not resolve")
	}
	if _, ok := x.Scan(xpath.MustParse("//missing")); ok {
		t.Fatalf("empty path set must not resolve")
	}
}

// TestProbeEqAgainstFilter: an equality probe returns exactly the nodes a
// scan-and-compare keeps.
func TestProbeEqAgainstFilter(t *testing.T) {
	d := parse(t, testDoc)
	x := Build(d)
	si, ok := x.Scan(xpath.MustParse("//book/title"))
	if !ok {
		t.Fatalf("no scan for //book/title")
	}
	for _, key := range []value.Value{value.Str("t1"), value.Str("t2"), value.Str("zzz")} {
		got, ok := si.Index.ProbeEq(key)
		if !ok {
			t.Fatalf("title path should carry a value index")
		}
		var want []int32
		for _, r := range si.Index.ScanAll() {
			if value.GeneralCompare(value.NodeVal{Node: d.Node(int(r))}, key, value.CmpEq) {
				want = append(want, r)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("probe %v: %d nodes, filter keeps %d", key, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("probe %v: node %d differs", key, i)
			}
		}
	}
}

// TestProbeEqNumeric: KeyOf normalizes numeric strings, so probing the
// indexed "1999" with the number 1999 hits — matching GeneralCompare, which
// compares them numerically.
func TestProbeEqNumeric(t *testing.T) {
	x := Build(parse(t, testDoc))
	si, _ := x.Scan(xpath.MustParse("//book/@year"))
	got, ok := si.Index.ProbeEq(value.Int(1999))
	if !ok || len(got) != 1 {
		t.Fatalf("numeric probe: %d nodes, ok=%v", len(got), ok)
	}
}

// TestMergedHasNoValueLayer: multi-path scans cannot answer value probes.
func TestMergedHasNoValueLayer(t *testing.T) {
	x := Build(parse(t, testDoc))
	si, ok := x.Scan(xpath.MustParse("//title")) // 4 distinct absolute paths
	if !ok {
		t.Fatalf("no scan for //title")
	}
	if !strings.Contains(si.Path, "|") {
		t.Fatalf("expected a merged multi-path display, got %q", si.Path)
	}
	if _, ok := si.Index.ProbeEq(value.Str("t1")); ok {
		t.Fatalf("merged index must refuse value probes")
	}
}

// TestValueResolution: base //book with rel @year resolves onto the
// /lib/shelf/book/@year value index at depth 1.
func TestValueResolution(t *testing.T) {
	x := Build(parse(t, testDoc))
	vi, ok := x.Value(xpath.MustParse("//book"), xpath.MustParse("@year"))
	if !ok {
		t.Fatalf("no value resolution for //book + @year")
	}
	if vi.Path != "/lib/shelf/book/@year" || vi.Depth != 1 {
		t.Fatalf("path/depth = %q/%d", vi.Path, vi.Depth)
	}
	if vi.ScanCard != 2 {
		t.Fatalf("scan card = %v, want 2 books", vi.ScanCard)
	}

	// A descendant step in rel has no fixed parent-hop depth.
	descRel := xpath.Path{Steps: []xpath.Step{{Axis: xpath.AxisDescendant, Name: "title"}}}
	if _, ok := x.Value(xpath.MustParse("//shelf"), descRel); ok {
		t.Fatalf("descendant rel must not resolve")
	}
	// A rel reaching multiple absolute paths must not resolve.
	if _, ok := x.Value(xpath.MustParse("/lib/shelf"), xpath.MustParse("*/title")); ok {
		t.Fatalf("multi-path combined rel must not resolve")
	}
	// A structural leaf path carries no value index.
	if _, ok := x.Value(xpath.MustParse("/lib"), xpath.MustParse("shelf")); ok {
		t.Fatalf("structural path must not value-resolve")
	}
}

// TestBuildWithPersistedStats: BuildWith over persisted statistics produces
// the same indexes, path by path, as a full Build.
func TestBuildWithPersistedStats(t *testing.T) {
	d := parse(t, testDoc)
	full := Build(d)
	re := BuildWith(d, full.Stats)
	if len(re.Paths) != len(full.Paths) {
		t.Fatalf("path sets differ: %d vs %d", len(re.Paths), len(full.Paths))
	}
	for i := range full.Paths {
		px, qx := &full.Paths[i], &re.Paths[i]
		if qx.Path != px.Path || !slices.Equal(qx.Ranks, px.Ranks) || qx.HasValues != px.HasValues {
			t.Fatalf("index at %s differs from the one at %s", qx.Path, px.Path)
		}
	}
	if re.Stats != full.Stats {
		t.Fatalf("persisted stats must be adopted, not recomputed")
	}
}

// corrupted returns st's paths copied and edited by edit, as the statistics
// of a store record that says what edit made it say.
func corrupted(st *stats.DocStats, edit func(ps []*stats.PathStats) []*stats.PathStats) *stats.DocStats {
	ps := make([]*stats.PathStats, len(st.Paths))
	for i, p := range st.Paths {
		c := *p
		ps[i] = &c
	}
	return stats.FromPaths(st.URI, st.Elements, edit(ps))
}

// TestBuildWithAnyStatistics: statistics that disagree with the document
// — naming a path it lacks, omitting paths it has, calling a structural
// path simple, misstating counts — change no answer: Scan returns the
// ranks Build's does, and every value layer's ProbeEq keeps exactly the
// nodes a filter scan keeps, as Build's layer does where it has one.
func TestBuildWithAnyStatistics(t *testing.T) {
	d := parse(t, testDoc)
	truth := Build(d)
	setAll := func(f func(p *stats.PathStats)) func([]*stats.PathStats) []*stats.PathStats {
		return func(ps []*stats.PathStats) []*stats.PathStats {
			for _, p := range ps {
				f(p)
			}
			return ps
		}
	}
	cases := map[string]*stats.DocStats{
		"a path the document lacks": corrupted(truth.Stats, func(ps []*stats.PathStats) []*stats.PathStats {
			return append(ps, &stats.PathStats{Path: "/lib/ghost", Count: 7, Simple: true, Distinct: 2},
				&stats.PathStats{Path: "/lib/shelf/book/@ghost", Count: 1, Simple: true, Distinct: 1})
		}),
		"paths the document has omitted": corrupted(truth.Stats, func(ps []*stats.PathStats) []*stats.PathStats {
			return slices.DeleteFunc(ps, func(p *stats.PathStats) bool {
				return strings.HasSuffix(p.Path, "/title") || strings.HasSuffix(p.Path, "/@year")
			})
		}),
		"no paths at all":   corrupted(truth.Stats, func([]*stats.PathStats) []*stats.PathStats { return nil }),
		"every path simple": corrupted(truth.Stats, setAll(func(p *stats.PathStats) { p.Simple = true })),
		"zero counts":       corrupted(truth.Stats, setAll(func(p *stats.PathStats) { p.Count, p.Distinct = 0, 0 })),
		"huge counts":       corrupted(truth.Stats, setAll(func(p *stats.PathStats) { p.Count, p.Distinct = 1<<62, 1<<62 })),
		"negative counts":   corrupted(truth.Stats, setAll(func(p *stats.PathStats) { p.Count, p.Distinct = -3, -1 })),
	}
	exprs := []string{
		"/lib", "/lib/shelf", "/lib/shelf/book", "/lib/shelf/book/@year", "//title",
		"//book/title", "//journal/title", "/lib//title", "//*", "//@*", "/lib/ghost", "//@ghost",
	}
	for name, st := range cases {
		x := BuildWith(d, st)
		for _, e := range exprs {
			want, wantOK := truth.Scan(xpath.MustParse(e))
			got, ok := x.Scan(xpath.MustParse(e))
			if ok != wantOK || ok && (got.Path != want.Path || !slices.Equal(got.Index.ScanAll(), want.Index.ScanAll())) {
				t.Errorf("%s: Scan(%s) = %q %v, Build's %q %v", name, e, got.Path, ok, want.Path, wantOK)
			}
		}
		for i := range x.Paths {
			px := &x.Paths[i]
			if px.Path != truth.Paths[i].Path || !slices.Equal(px.Ranks, truth.Paths[i].Ranks) {
				t.Fatalf("%s: index %d is %s, Build's %s", name, i, px.Path, truth.Paths[i].Path)
			}
			if !px.HasValues {
				continue
			}
			keys := probeKeys(d, px.Ranks, value.Str("zzz"), value.Int(1999))
			checkProbes(t, d, px.Ranks, keys, func(key value.Value) []int32 {
				got, _ := px.ProbeEq(key)
				if want, ok := truth.Paths[i].ProbeEq(key); ok && !slices.Equal(got, want) {
					t.Errorf("%s: probe %#v at %s: %v, Build's %v", name, key, px.Path, got, want)
				}
				return got
			})
		}
		for _, v := range [][2]string{{"//book", "@year"}, {"//book", "title"}, {"/lib", "ghost"}, {"//book", "@ghost"}, {"/lib", "shelf"}} {
			if vi, ok := x.Value(xpath.MustParse(v[0]), xpath.MustParse(v[1])); ok {
				leaf, _ := truth.Scan(xpath.MustParse(v[0] + "/" + v[1]))
				if vi.Path != leaf.Path || !slices.Equal(vi.Index.ScanAll(), leaf.Index.ScanAll()) {
					t.Errorf("%s: Value(%s, %s) resolves onto %s, the path selects %s", name, v[0], v[1], vi.Path, leaf.Path)
				}
			}
		}
		if len(x.Paths) != len(truth.Paths) {
			t.Errorf("%s: %d paths indexed, Build indexes %d", name, len(x.Paths), len(truth.Paths))
		}
	}
}
