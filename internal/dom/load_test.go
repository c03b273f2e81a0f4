package dom_test

import (
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/xmlgen"
)

// bibXML is the upload of the benchmark's reload_mix workload: bib.xml at
// size 1 000, about 220 KB and 18 000 nodes.
func bibXML() string { return dom.XMLString(xmlgen.Bib(xmlgen.DefaultConfig(1000)).Root) }

// TestParseAllocs pins the scanner's allocations: a parse costs the
// Builder's chunks and slabs and a few scanner buffers, however many tokens
// the input has (the encoding/xml loop made 70 000 here).
func TestParseAllocs(t *testing.T) {
	s := bibXML()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := dom.ParseString(s, "bib.xml"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 150 {
		t.Fatalf("ParseString of %d bytes made %.0f allocations, want ≤ 150", len(s), allocs)
	}
}

// BenchmarkParse measures ParseString on the reload_mix upload; MB/s is
// the scanner's throughput.
func BenchmarkParse(b *testing.B) {
	s := bibXML()
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := dom.ParseString(s, "bib.xml"); err != nil {
			b.Fatal(err)
		}
	}
}
