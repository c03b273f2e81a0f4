package dom_test

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/xmlgen"
)

// TestDocumentBytesPerNode pins what a resident document costs: bib.xml at
// size 5000 (the harness's paper_plans corpus) stays within 64 bytes of
// live heap per node — a 32-byte row plus its share of the string slabs and
// of its size class's slack rows (rows.go). The pointer tree this table
// replaced took 148.
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

// BenchmarkCollectResidentCorpus reports the collector's CPU time per forced
// collection (runtime/metrics /cpu/classes/gc/total:cpu-seconds) with an
// empty heap and with bib.xml at size 5000 resident, as gc-cpu-ms/op:
//
//	go test -run '^$' -bench CollectResidentCorpus -benchtime 30x ./internal/dom
//
// A row slab the collector had to scan would put the second reading far
// above the first.
func BenchmarkCollectResidentCorpus(b *testing.B) {
	b.Run("empty", func(b *testing.B) { collect(b, nil) })
	b.Run("bib5000", func(b *testing.B) { collect(b, xmlgen.Bib(xmlgen.DefaultConfig(5000))) })
}

func collect(b *testing.B, resident *dom.Document) {
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	runtime.GC()
	metrics.Read(gc)
	before := gc[0].Value.Float64()
	b.ResetTimer()
	for range b.N {
		runtime.GC()
	}
	b.StopTimer()
	metrics.Read(gc)
	b.ReportMetric((gc[0].Value.Float64()-before)*1e3/float64(b.N), "gc-cpu-ms/op")
	runtime.KeepAlive(resident)
}
