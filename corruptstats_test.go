package nalquery

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/stats"
	"nalquery/internal/store"
	"nalquery/internal/xmlgen"
)

// TestDifferentialCorruptedStatistics: statistics a store file carries are
// a claim about the document, and a false claim may move a plan's price,
// never its answer. Each document is saved with statistics that name paths
// it lacks, omit paths it has, call structural paths simple or misstate
// counts, and loaded through LoadStoreFile; every plan the engine then
// offers prints byte for byte what the same text prints on an engine that
// loaded the document's XML. (The name keeps it inside the CI oracle
// sweep's TestDifferential pattern.)
func TestDifferentialCorruptedStatistics(t *testing.T) {
	bib := xmlgen.DefaultConfig(30)
	docs := []struct {
		uri, xml string
		queries  []string
	}{
		{"b.xml", `<bib><book><title>a</title></book><journal><title>b</title></journal></bib>`, []string{
			`for $t in doc("b.xml")//title return $t`,
			`for $g in doc("b.xml")/bib/ghost return $g`,
			`for $t in doc("b.xml")//title where $t = "b" return $t`,
			`for $b in doc("b.xml")/bib/book where $b/title = "a" return $b`,
		}},
		{"bib.xml", dom.XMLString(xmlgen.Bib(bib).Root), []string{
			QueryQ1Grouping, QueryQ3Existential, QueryQ4Exists, QueryQ5Universal, selectiveQuery,
		}},
	}
	each := func(f func(p *stats.PathStats)) func([]*stats.PathStats) []*stats.PathStats {
		return func(ps []*stats.PathStats) []*stats.PathStats {
			for _, p := range ps {
				f(p)
			}
			return ps
		}
	}
	corruptions := map[string]func([]*stats.PathStats) []*stats.PathStats{
		"paths the document lacks": func(ps []*stats.PathStats) []*stats.PathStats {
			return append(ps, &stats.PathStats{Path: "/bib/ghost", Count: 3, Simple: true, Distinct: 1},
				&stats.PathStats{Path: "/bib/book/@ghost", Count: 9, Simple: true, Distinct: 2})
		},
		"paths the document has omitted": func(ps []*stats.PathStats) []*stats.PathStats {
			return slices.DeleteFunc(ps, func(p *stats.PathStats) bool {
				return slices.Contains([]string{"/bib/journal/title", "/bib/book/author", "/bib/book/@year"}, p.Path)
			})
		},
		"every path simple":   each(func(p *stats.PathStats) { p.Simple, p.Distinct = true, 1 }),
		"inflated counts":     each(func(p *stats.PathStats) { p.Count, p.Distinct = 1000*p.Count+7, 1 }),
		"zero counts":         each(func(p *stats.PathStats) { p.Count, p.Distinct = 0, 0 }),
		"distinct over count": each(func(p *stats.PathStats) { p.Distinct = 1 << 40 }),
	}
	dir := t.TempDir()
	for _, doc := range docs {
		fresh := NewEngine()
		fresh.LoadUseCaseDocuments(bib.Books, bib.AuthorsPerBook)
		if err := fresh.LoadXMLString(doc.uri, doc.xml); err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(doc.queries))
		for i, text := range doc.queries {
			q, err := fresh.Compile(text)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if want[i], _, err = execute(q, ""); err != nil {
				t.Fatalf("%s: %v", text, err)
			}
		}
		d := dom.MustParseString(doc.xml, doc.uri)
		for name, corrupt := range corruptions {
			measured := stats.Analyze(d)
			st := stats.FromPaths(doc.uri, measured.Elements, corrupt(measured.Paths))
			path := filepath.Join(dir, fmt.Sprintf("%s-%s.nalb", doc.uri, name))
			if err := store.SaveFileStats(path, d, st); err != nil {
				t.Fatal(err)
			}
			eng := NewEngine()
			eng.LoadUseCaseDocuments(bib.Books, bib.AuthorsPerBook)
			if err := eng.LoadStoreFile(doc.uri, path); err != nil {
				t.Fatal(err)
			}
			for i, text := range doc.queries {
				q, err := eng.Compile(text)
				if err != nil {
					t.Fatalf("%s, %s: %s: %v", doc.uri, name, text, err)
				}
				for _, p := range q.Plans() {
					got, _, err := execute(q, p.Name)
					if err != nil {
						t.Errorf("%s, %s: plan %q of %s: %v", doc.uri, name, p.Name, text, err)
					} else if got != want[i] {
						t.Errorf("%s, %s: plan %q of %s prints\n%s\nthe XML-loaded engine prints\n%s",
							doc.uri, name, p.Name, text, got, want[i])
					}
				}
			}
		}
	}
}
