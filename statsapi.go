package nalquery

// The public surface of the statistics & index subsystem: per-document
// analyzer summaries (the server's GET /documents/{uri}/stats payload),
// the engine-level analyzer-run and index-hit counters (/statusz), and the
// IndexCatalog adapter the planner's index substitution resolves through.
// See docs/PLANNING.md for how the pieces fit.

import (
	"nalquery/internal/core"
	"nalquery/internal/index"
	"nalquery/internal/xpath"
)

// PathStatistics is the measured profile of one absolute document path.
type PathStatistics struct {
	// Path is the absolute root-to-node path ("/bib/book", "/bib/book/@year").
	Path string `json:"path"`
	// Count is the number of nodes at this path.
	Count int64 `json:"count"`
	// AvgFanout is the average number of element children per node.
	AvgFanout float64 `json:"avg_fanout,omitempty"`
	// Simple reports leaf-only content; only simple paths carry the value
	// statistics below and a value index.
	Simple bool `json:"simple,omitempty"`
	// Distinct counts distinct string values (simple paths only).
	Distinct int64 `json:"distinct,omitempty"`
	// Min and Max are the lexicographic value extremes.
	Min string `json:"min,omitempty"`
	Max string `json:"max,omitempty"`
	// Numeric reports that every value parses as a number.
	Numeric bool `json:"numeric,omitempty"`
}

// DocumentStatistics is the analyzer's summary of one loaded document.
type DocumentStatistics struct {
	URI      string           `json:"uri"`
	Elements int64            `json:"elements"`
	Paths    []PathStatistics `json:"paths"`
}

// DocumentStats returns the measured statistics of a loaded document (ok is
// false for unknown URIs). The analyzer runs once per load: the summary is
// computed when the document enters the engine and invalidated — like the
// plan cache — when a state transition replaces it.
func (e *Engine) DocumentStats(uri string) (*DocumentStatistics, bool) {
	aux := e.snapshot().aux[uri]
	if aux == nil {
		return nil, false
	}
	ds := aux.Stats
	out := &DocumentStatistics{URI: ds.URI, Elements: ds.Elements,
		Paths: make([]PathStatistics, 0, len(ds.Paths))}
	for _, p := range ds.Paths {
		out.Paths = append(out.Paths, PathStatistics{
			Path: p.Path, Count: p.Count, AvgFanout: p.AvgFanout,
			Simple: p.Simple, Distinct: p.Distinct, Min: p.Min, Max: p.Max,
			Numeric: p.AllNumeric,
		})
	}
	return out, true
}

// AnalyzerRuns reports how many document analyses this engine has run (one
// per loaded or replaced document).
func (e *Engine) AnalyzerRuns() int64 { return e.analyzerRuns.Load() }

// IndexHits reports the cumulative number of index-scan resolutions across
// finished runs of queries compiled by this engine.
func (e *Engine) IndexHits() int64 { return e.indexHits.Load() }

// indexCat adapts one snapshot's sidecar to the planner's IndexCatalog.
type indexCat struct {
	aux map[string]*index.DocIndexes
}

func (c indexCat) ScanIndex(uri string, p xpath.Path) (core.ScanInfo, bool) {
	if x := c.aux[uri]; x != nil {
		return x.Scan(p)
	}
	return core.ScanInfo{}, false
}

func (c indexCat) ValueIndex(uri string, base, rel xpath.Path) (core.ValueInfo, bool) {
	if x := c.aux[uri]; x != nil {
		return x.Value(base, rel)
	}
	return core.ValueInfo{}, false
}
