package index

import (
	"strings"
	"testing"

	"nalquery/internal/dom"
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
		for i, n := range got {
			if want[i] != n {
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
		var want []*dom.Node
		for _, n := range si.Index.ScanAll() {
			if value.GeneralCompare(value.NodeVal{Node: n}, key, value.CmpEq) {
				want = append(want, n)
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
// the same indexes as a full Build.
func TestBuildWithPersistedStats(t *testing.T) {
	d := parse(t, testDoc)
	full := Build(d)
	re := BuildWith(d, full.Stats)
	if len(re.ByPath) != len(full.ByPath) {
		t.Fatalf("path sets differ: %d vs %d", len(re.ByPath), len(full.ByPath))
	}
	for p, px := range full.ByPath {
		qx := re.ByPath[p]
		if qx == nil || len(qx.Nodes) != len(px.Nodes) || qx.HasValues != px.HasValues {
			t.Fatalf("index at %s differs", p)
		}
	}
	if re.Stats != full.Stats {
		t.Fatalf("persisted stats must be adopted, not recomputed")
	}
}
