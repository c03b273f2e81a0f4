package cli

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	nalquery "nalquery"
	"nalquery/internal/dom"
	"nalquery/internal/stats"
	"nalquery/internal/store"
)

// TestLoadDocAdoptsStoredStatistics: a .nalb file's NALB2 record reaches
// the engine as the file states it — DocumentStats reports the file's
// counts, which here differ from what measuring the document would give —
// while an XML file is measured, and an argument without '=' is refused.
func TestLoadDocAdoptsStoredStatistics(t *testing.T) {
	const xml = `<bib><book year="1999"><title>a</title></book><book><title>b</title></book></bib>`
	d := dom.MustParseString(xml, "bib.xml")
	st := stats.Analyze(d)
	for _, p := range st.Paths {
		p.Count += 100
	}
	st.Elements = 1000
	dir := t.TempDir()
	nalb, plain := filepath.Join(dir, "bib.nalb"), filepath.Join(dir, "bib.xml")
	if err := store.SaveFileStats(nalb, d, st); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(plain, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := nalquery.NewEngine()
	if err := LoadDoc(eng, "stored.xml="+nalb); err != nil {
		t.Fatal(err)
	}
	if err := LoadDoc(eng, "parsed.xml="+plain); err != nil {
		t.Fatal(err)
	}
	stored, ok := eng.DocumentStats("stored.xml")
	if !ok || stored.Elements != 1000 || len(stored.Paths) != len(st.Paths) {
		t.Fatalf("stored.xml: statistics %+v, want the file's %d elements over %d paths", stored, 1000, len(st.Paths))
	}
	for i, p := range stored.Paths {
		if p.Path != st.Paths[i].Path || p.Count != st.Paths[i].Count {
			t.Errorf("stored.xml: %s counts %d, the file says %s counts %d", p.Path, p.Count, st.Paths[i].Path, st.Paths[i].Count)
		}
	}
	if parsed, ok := eng.DocumentStats("parsed.xml"); !ok || parsed.Elements != 5 {
		t.Errorf("parsed.xml: statistics %+v, want 5 measured elements", parsed)
	}
	if err := LoadDoc(eng, nalb); !errors.Is(err, ErrDocSpec) {
		t.Errorf("an argument without '=': %v, want ErrDocSpec", err)
	}
}
