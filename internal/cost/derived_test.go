package cost

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/stats"
	"nalquery/internal/store"
	"nalquery/internal/xmlgen"
)

// storeRoundTrip saves d (as NALB2 when st is non-nil, NALB1 otherwise) and
// loads it back with whatever statistics the record carried.
func storeRoundTrip(t *testing.T, d *dom.Document, st *stats.DocStats) (*dom.Document, *stats.DocStats) {
	t.Helper()
	var buf bytes.Buffer
	if err := store.SaveStats(&buf, d, st); err != nil {
		t.Fatal(err)
	}
	back, adopted, err := store.LoadStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back.URI = d.URI
	return back, adopted
}

// walkCounts counts the documents' elements by name, walking every node.
func walkCounts(docs map[string]*dom.Document) (map[string]float64, float64) {
	counts, total := map[string]float64{}, 0.0
	for _, d := range docs {
		for i := 0; i < d.NumNodes(); i++ {
			if n := d.Node(i); n.Kind() == dom.KindElement {
				counts[n.Name()]++
				total++
			}
		}
	}
	return counts, total
}

// TestDerivedCountsEqualWalk: the element counts NewModelStats reads off the
// analyzer's statistics are the counts a walk of the documents finds, for
// every kind of document the engine holds — generated, parsed, and loaded
// from either store version.
func TestDerivedCountsEqualWalk(t *testing.T) {
	cfg := xmlgen.DefaultConfig(60)
	parsed, err := dom.Parse(strings.NewReader(
		`<?xml version="1.0"?><!-- c --><a x="1"><b>t<a y="2"/>u</b><b/><c><b><b z="3"/></b></c><?pi x?></a>`), "p.xml")
	if err != nil {
		t.Fatal(err)
	}
	bib := xmlgen.Bib(cfg)
	v1, v1st := storeRoundTrip(t, bib, nil)
	if v1st != nil {
		t.Fatalf("NALB1 record came back with statistics")
	}
	v2, v2st := storeRoundTrip(t, bib, stats.Analyze(bib))
	if v2st == nil {
		t.Fatalf("NALB2 record came back without statistics")
	}
	analyzed := func(docs ...*dom.Document) (map[string]*dom.Document, map[string]*stats.DocStats) {
		dm, sm := map[string]*dom.Document{}, map[string]*stats.DocStats{}
		for _, d := range docs {
			dm[d.URI], sm[d.URI] = d, stats.Analyze(d)
		}
		return dm, sm
	}
	useCases, useCaseStats := analyzed(bib, xmlgen.Reviews(cfg), xmlgen.Prices(cfg),
		xmlgen.Users(cfg), xmlgen.Items(cfg), xmlgen.Bids(cfg))
	dblp, dblpStats := analyzed(xmlgen.DBLP(xmlgen.DBLPConfig{Seed: 42, Publications: 60}))
	parsedDocs, parsedStats := analyzed(parsed)
	v1Docs, v1Stats := analyzed(v1)

	for _, tc := range []struct {
		name string
		docs map[string]*dom.Document
		st   map[string]*stats.DocStats
	}{
		{"use cases", useCases, useCaseStats},
		{"dblp", dblp, dblpStats},
		{"parsed xml", parsedDocs, parsedStats},
		{"NALB1 round trip, re-analyzed", v1Docs, v1Stats},
		{"NALB2 round trip, adopted statistics", map[string]*dom.Document{v2.URI: v2},
			map[string]*stats.DocStats{v2.URI: v2st}},
	} {
		counts, total := walkCounts(tc.docs)
		derived := NewModelStats(tc.docs, tc.st)
		if len(counts) == 0 {
			t.Fatalf("%s: the walk counted nothing", tc.name)
		}
		if !reflect.DeepEqual(derived.elemCount, counts) || derived.total != total {
			t.Errorf("%s: derived counts differ from the walk's\nderived %v total %v\nwalk    %v total %v",
				tc.name, derived.elemCount, derived.total, counts, total)
		}
	}
}
