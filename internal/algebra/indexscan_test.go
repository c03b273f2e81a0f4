package algebra

import (
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

// fakeIndex is a NodeIndex over an explicit node list. The value layer is
// simulated with the same general comparison the real index agrees with;
// hasVals=false refuses probes, forcing the operator's filter fallback.
type fakeIndex struct {
	nodes   []*dom.Node
	hasVals bool
	scans   int
	probes  int
}

func (f *fakeIndex) ScanAll() []*dom.Node { f.scans++; return f.nodes }

func (f *fakeIndex) ProbeEq(key value.Value) ([]*dom.Node, bool) {
	if !f.hasVals {
		return nil, false
	}
	f.probes++
	var out []*dom.Node
	for _, n := range f.nodes {
		if value.GeneralCompare(value.NodeVal{Node: n}, key, value.CmpEq) {
			out = append(out, n)
		}
	}
	return out, true
}

const idxTestDoc = `<bib>
  <book year="1999"><title>a</title></book>
  <book year="2001"><title>b</title></book>
  <book year="1999"><title>c</title></book>
</bib>`

func idxNodes(t *testing.T, d *dom.Document, expr string) []*dom.Node {
	t.Helper()
	return xpath.MustParse(expr).Append(nil, value.NodeVal{Node: d.Root})
}

// boundNodes collects the nodes an IndexScan bound to attr, per engine run.
func boundNodes(t *testing.T, op Op, attr string) ([]*dom.Node, *Stats, *Stats) {
	t.Helper()
	evalCtx := NewCtx(nil)
	want := op.Eval(evalCtx, nil)
	iterCtx := NewCtx(nil)
	got := RunIter(op, iterCtx)
	if !value.TupleSeqEqual(want, got) {
		t.Fatalf("engines disagree:\n eval %v\n iter %v", want, got)
	}
	var out []*dom.Node
	for _, tu := range want {
		out = append(out, tu[attr].(value.NodeVal).Node)
	}
	return out, &evalCtx.Stats, &iterCtx.Stats
}

func sameNodes(a, b []*dom.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIndexScanStructural: the structural form emits input × indexed nodes
// in document order, identically on both engines, counting one index scan
// per open and no document accesses.
func TestIndexScanStructural(t *testing.T) {
	d := dom.MustParseString(idxTestDoc, "bib.xml")
	books := idxNodes(t, d, "//book")
	fx := &fakeIndex{nodes: books}
	op := IndexScan{In: Singleton{}, Attr: "b", URI: "bib.xml",
		Path: "/bib/book", Index: fx, EstCard: 3}
	got, evalStats, iterStats := boundNodes(t, op, "b")
	if !sameNodes(got, books) {
		t.Fatalf("structural scan bound %d nodes, want the 3 books", len(got))
	}
	for _, st := range []*Stats{evalStats, iterStats} {
		if st.IndexScans != 1 {
			t.Fatalf("index scans = %d, want 1 per open", st.IndexScans)
		}
		if st.DocAccesses != 0 {
			t.Fatalf("an index scan must not traverse the document")
		}
		if st.Tuples != int64(len(books)) {
			t.Fatalf("tuples = %d, want %d", st.Tuples, len(books))
		}
	}
}

// TestIndexScanValueProbe: the value form probes the index and, with Depth,
// hops the matches up to the bound ancestors, deduplicated in doc order.
func TestIndexScanValueProbe(t *testing.T) {
	d := dom.MustParseString(idxTestDoc, "bib.xml")
	years := idxNodes(t, d, "//book/@year")
	books := idxNodes(t, d, "//book")
	fx := &fakeIndex{nodes: years, hasVals: true}
	op := IndexScan{In: Singleton{}, Attr: "b", URI: "bib.xml",
		Path: "/bib/book/@year", Index: fx, Depth: 1,
		Cmp: value.CmpEq, Key: ConstVal{V: value.Int(1999)}, EstCard: 2}
	got, _, _ := boundNodes(t, op, "b")
	want := []*dom.Node{books[0], books[2]}
	if !sameNodes(got, want) {
		t.Fatalf("probe bound %d nodes, want books 1 and 3", len(got))
	}
	if fx.probes == 0 {
		t.Fatalf("value form must probe the index")
	}
}

// TestIndexScanMultiAtomKey: general comparison is existential over the
// key's atoms — a sequence key probes per atom and unions the matches.
func TestIndexScanMultiAtomKey(t *testing.T) {
	d := dom.MustParseString(idxTestDoc, "bib.xml")
	years := idxNodes(t, d, "//book/@year")
	fx := &fakeIndex{nodes: years, hasVals: true}
	op := IndexScan{In: Singleton{}, Attr: "y", URI: "bib.xml",
		Path: "/bib/book/@year", Index: fx, Cmp: value.CmpEq,
		Key: ConstVal{V: value.Seq{value.Int(1999), value.Int(2001)}}}
	got, _, _ := boundNodes(t, op, "y")
	if !sameNodes(got, years) {
		t.Fatalf("multi-atom probe bound %d nodes, want all 3 years", len(got))
	}
}

// TestIndexScanProbeFallback: an index without a value layer still executes
// the value form correctly by filtering the scan — and CmpNe always
// filters, because ∃-≠ is not the complement of ∃-=.
func TestIndexScanProbeFallback(t *testing.T) {
	d := dom.MustParseString(idxTestDoc, "bib.xml")
	years := idxNodes(t, d, "//book/@year")
	for _, tc := range []struct {
		name    string
		hasVals bool
		cmp     value.CmpOp
		wantN   int
	}{
		{"no value layer", false, value.CmpEq, 2},
		{"ne filters", true, value.CmpNe, 1},
		{"ordered probe", true, value.CmpGt, 1},
	} {
		fx := &fakeIndex{nodes: years, hasVals: tc.hasVals}
		op := IndexScan{In: Singleton{}, Attr: "y", URI: "bib.xml",
			Path: "/bib/book/@year", Index: fx, Cmp: tc.cmp,
			Key: ConstVal{V: value.Int(1999)}}
		got, _, _ := boundNodes(t, op, "y")
		if len(got) != tc.wantN {
			t.Fatalf("%s: bound %d nodes, want %d", tc.name, len(got), tc.wantN)
		}
		if tc.cmp == value.CmpNe && fx.probes != 0 {
			t.Fatalf("CmpNe must not probe")
		}
	}
}

// TestIndexScanPerInputRow: like Υ, the node list repeats per input tuple,
// resolved once per open — not once per row.
func TestIndexScanPerInputRow(t *testing.T) {
	d := dom.MustParseString(idxTestDoc, "bib.xml")
	books := idxNodes(t, d, "//book")
	fx := &fakeIndex{nodes: books}
	in := UnnestMap{In: Singleton{}, Attr: "i",
		E: ConstVal{V: value.Seq{value.Int(1), value.Int(2)}}}
	op := IndexScan{In: in, Attr: "b", URI: "bib.xml", Path: "/bib/book", Index: fx}
	ctx := NewCtx(nil)
	out := RunIter(op, ctx)
	if len(out) != 2*len(books) {
		t.Fatalf("%d tuples, want input × nodes = %d", len(out), 2*len(books))
	}
	if ctx.Stats.IndexScans != 1 {
		t.Fatalf("index resolved %d times, want once per open", ctx.Stats.IndexScans)
	}
}
