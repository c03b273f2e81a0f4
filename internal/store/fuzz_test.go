package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/index"
	"nalquery/internal/stats"
	"nalquery/internal/value/valuetest"
	"nalquery/internal/xpath"
)

// loadMeasured runs LoadStats and reports the bytes it allocated. Tests of
// this package do not run in parallel, so the delta is the call's own.
func loadMeasured(data []byte) (*dom.Document, *stats.DocStats, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, st, err := LoadStats(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return d, st, after.TotalAlloc - before.TotalAlloc, err
}

// FuzzStoreLoad is the trust-boundary property of the binary store
// (docs/FUZZING.md): whatever the bytes, LoadStats returns a store: error or
// a well-formed document — never a panic — having allocated a small multiple
// of the input; what loaded is a fixpoint of save → load → save; its rows
// read the atoms their texts do (valuetest.CheckRows); and indexes built
// beside the loaded statistics, whatever they claim, hold the ranks a build
// that measures the document holds.
func FuzzStoreLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, st, alloc, err := loadMeasured(data)
		if limit := uint64(64*len(data) + 1<<20); alloc > limit {
			t.Fatalf("loading %d bytes allocated %d, want ≤ %d", len(data), alloc, limit)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "store: ") {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		for i := 0; i < d.NumNodes(); i++ {
			n := d.Node(i)
			if n.Order() != i || n.End() <= i || n.End() > d.NumNodes() {
				t.Fatalf("node %d: rank %d, subtree end %d of %d", i, n.Order(), n.End(), d.NumNodes())
			}
			if p := n.Parent(); (p == nil) != (i == 0) || p != nil && (p.Order() >= i || p.End() < n.End()) {
				t.Fatalf("node %d: parent %v does not enclose it", i, p)
			}
		}
		var first, second bytes.Buffer
		if err := SaveStats(&first, d, st); err != nil {
			t.Fatal(err)
		}
		d2, st2, err := LoadStats(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading what was saved: %v", err)
		}
		if err := SaveStats(&second, d2, st2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save → load → save is not a fixpoint:\n%q\n%q", first.Bytes(), second.Bytes())
		}
		if dom.XMLString(d.Root) != dom.XMLString(d2.Root) {
			t.Fatalf("reloaded document serializes differently")
		}
		if err := valuetest.CheckRows(d); err != nil {
			t.Fatalf("loaded document: %v", err)
		}
		adopted, measured := index.BuildWith(d, st), index.Build(d)
		if len(adopted.Paths) != len(measured.Paths) {
			t.Fatalf("beside the loaded statistics %d paths are indexed, measuring indexes %d",
				len(adopted.Paths), len(measured.Paths))
		}
		for i, px := range measured.Paths {
			if qx := adopted.Paths[i]; qx.Path != px.Path || !slices.Equal(qx.Ranks, px.Ranks) {
				t.Fatalf("path %d: %s holds %v beside the loaded statistics, %s holds %v measured",
					i, qx.Path, qx.Ranks, px.Path, px.Ranks)
			}
		}
		for _, e := range []string{"//*", "//@*"} {
			p := xpath.MustParse(e)
			a, aok := adopted.Scan(p)
			m, mok := measured.Scan(p)
			if aok != mok || aok && (a.Path != m.Path || !slices.Equal(a.Index.ScanAll(), m.Index.ScanAll())) {
				t.Fatalf("Scan(%s): %q %v beside the loaded statistics, %q %v measured", e, a.Path, aok, m.Path, mok)
			}
		}
	})
}

// corpusBytes reads one []byte entry of the committed fuzz corpus.
func corpusBytes(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzStoreLoad", name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(raw), "\n")
	lit = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lit), "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// TestFilesOfEarlierCommitsResaveIdentically: seed-nalb1 and seed-nalb2 were
// written by the pointer-tree implementation (the commit before the node
// table). They load, and saving what loaded reproduces them byte for byte —
// the format and the document model did not move.
func TestFilesOfEarlierCommitsResaveIdentically(t *testing.T) {
	const xml = `<bib><book year="1994" id="b&amp;1"><title>T &amp; x</title>mixed<b/>tail<author><last>L1</last><first>F1</first></author></book><book year="2000"><title>T2</title><price>39.95</price></book><empty/></bib>`
	for _, name := range []string{"seed-nalb1", "seed-nalb2"} {
		img := corpusBytes(t, name)
		d, st, err := LoadStats(bytes.NewReader(img))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := dom.XMLString(d.Root); got != xml {
			t.Errorf("%s loads to\n%s\nwant\n%s", name, got, xml)
		}
		var out bytes.Buffer
		if err := SaveStats(&out, d, st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), img) {
			t.Errorf("%s: re-saved image differs\n got %q\nwant %q", name, out.Bytes(), img)
		}
		// Statistics measured now equal the ones persisted then: ranks
		// (FirstOrder/LastOrder) kept the old numbering.
		if st != nil {
			var fresh bytes.Buffer
			if err := SaveStats(&fresh, d, stats.Analyze(d)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh.Bytes(), img) {
				t.Errorf("%s: statistics re-measured on the loaded document differ from the persisted ones", name)
			}
		}
	}
}

// TestHostileLengthsAllocateLittle: a length or count field is a claim, not
// a fact. The 11-byte file declaring a 256 MiB URI and a NALB2 trailer
// declaring 1<<24 paths both fail with a store: error having allocated
// less than 1 MiB (they used to allocate 256 MiB and 128 MiB up front).
func TestHostileLengthsAllocateLittle(t *testing.T) {
	paths := corpusBytes(t, "seed-nalb1")
	copy(paths, magicV2)
	paths = append(paths, 0x01)                              // elements
	paths = binary.AppendUvarint(paths, maxPaths)            // npaths
	paths = append(paths, "\x04/bib\x01\x00\x01\x01\x00"...) // one whole path record, then EOF
	for name, img := range map[string][]byte{
		"length bomb": corpusBytes(t, "seed-length-bomb"),
		"path count":  paths,
	} {
		_, _, alloc, err := loadMeasured(img)
		if err == nil || !strings.HasPrefix(err.Error(), "store: ") {
			t.Errorf("%s: err = %v, want a store: error", name, err)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: %d bytes of input allocated %d, want < 1 MiB", name, len(img), alloc)
		}
	}
	if n := len(corpusBytes(t, "seed-length-bomb")); n != 11 {
		t.Errorf("the length bomb is %d bytes, want 11", n)
	}
}

// TestDeepNestingCostsNoStack: nesting depth is the file's choice; the
// decoder and every walk over the loaded table are loops.
func TestDeepNestingCostsNoStack(t *testing.T) {
	const depth = 200000
	img := append([]byte(magic), "\x01d\x00\x00\x00\x00\x01"...)
	for i := 0; i < depth; i++ {
		img = append(img, "\x01\x01e\x00\x00\x01"...) // element e, no attributes, one child
	}
	img = append(img, "\x03\x00\x01x\x00\x00"...) // text x
	d, _, err := LoadStats(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != depth+2 || d.RootElement().StringValue() != "x" {
		t.Fatalf("loaded %d nodes, string value %q", d.NumNodes(), d.RootElement().StringValue())
	}
	if got := len(d.Root.Descendants("e", nil)); got != depth {
		t.Errorf("%d descendants, want %d", got, depth)
	}
	if got, want := len(dom.XMLString(d.Root)), depth*len("<e></e>")+1; got != want {
		t.Errorf("serialization is %d bytes, want %d", got, want)
	}
	var out bytes.Buffer
	if err := SaveStats(&out, d, nil); err != nil || !bytes.Equal(out.Bytes(), img) {
		t.Errorf("re-saving the deep document: err %v, identical %v", err, bytes.Equal(out.Bytes(), img))
	}
}
