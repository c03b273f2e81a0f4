package nalquery

import (
	"path/filepath"
	"testing"

	"nalquery/internal/store"
	"nalquery/internal/xmlgen"
)

// TestLoadStoreFile: a document persisted in the binary store format loads
// into the engine and answers queries identically to its in-memory
// original.
func TestLoadStoreFile(t *testing.T) {
	cfg := xmlgen.DefaultConfig(40)
	doc := xmlgen.Bib(cfg)
	path := filepath.Join(t.TempDir(), "bib.nalb")
	if err := store.SaveFileStats(path, doc, nil); err != nil {
		t.Fatal(err)
	}

	fromStore := NewEngine()
	if err := fromStore.LoadStoreFile("bib.xml", path); err != nil {
		t.Fatal(err)
	}
	inMemory := NewEngine()
	inMemory.LoadDocument(doc)

	q := `
let $d := doc("bib.xml")
for $t in $d//book/title
return <t>{ string($t) }</t>`
	a, err := fromStore.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inMemory.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("store-loaded document answers differently from the in-memory one")
	}
	if a == "" {
		t.Errorf("empty result from store-loaded document")
	}
}

// TestLoadStoreFileMissing: a missing path reports an error.
func TestLoadStoreFileMissing(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadStoreFile("x.xml", filepath.Join(t.TempDir(), "absent.nalb")); err == nil {
		t.Errorf("no error for missing store file")
	}
}
