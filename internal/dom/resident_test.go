package dom_test

import (
	"runtime"
	"testing"

	"nalquery/internal/xmlgen"
)

// TestDocumentBytesPerNode pins what a resident document costs: bib.xml at
// size 5000 (the harness's paper_plans corpus) stays within 64 bytes of
// live heap per node — a 40-byte row plus its share of the string slabs.
// The pointer tree this table replaced took 148.
func TestDocumentBytesPerNode(t *testing.T) {
	cfg := xmlgen.DefaultConfig(5000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := xmlgen.Bib(cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perNode := float64(after.HeapAlloc-before.HeapAlloc) / float64(d.NumNodes())
	t.Logf("%d nodes, %.1f resident bytes per node", d.NumNodes(), perNode)
	if perNode > 64 {
		t.Errorf("bib.xml at size 5000 keeps %.1f bytes per node resident, want ≤ 64", perNode)
	}
	runtime.KeepAlive(d)
}
