package valuetest

import (
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xmlgen"
)

// TestGeneratedDocumentsKeepTheirAtoms: every row of the generated corpora
// reads the atom its text does (CheckRows).
func TestGeneratedDocumentsKeepTheirAtoms(t *testing.T) {
	cfg := xmlgen.DefaultConfig(200)
	for _, d := range []*dom.Document{
		xmlgen.Bib(cfg), xmlgen.Reviews(cfg), xmlgen.Prices(cfg), xmlgen.Users(cfg),
		xmlgen.Items(cfg), xmlgen.Bids(cfg), xmlgen.DBLP(xmlgen.DBLPConfig{Seed: 42, Publications: 200}),
	} {
		if err := CheckRows(d); err != nil {
			t.Errorf("%s: %v", d.URI, err)
		}
	}
}

// TestEverySpellingKeepsItsAtom: the numbers an atom word holds inline, the
// ones it boxes, texts that only look numeric, and string values on both
// sides of the cutoff, as texts, attribute values and element values.
func TestEverySpellingKeepsItsAtom(t *testing.T) {
	spellings := []string{
		"", " ", "0", "-0", "+0", " 12 ", "1e3", "65.95", "0.1", "+.5", "-.5", "NaN", "nan", "inf",
		"-Infinity", "1e400", "1e-400", "2147483647", "2147483648", "-2147483648", "-2147483649",
		"0x1p-2", "0x10", "1_000", "0.12345678", "123.4567", "9007199254740993", "4.9e-324",
		"x", "true", "1:a", "a b", strings.Repeat("7", dom.AtomCutoff), strings.Repeat("7", dom.AtomCutoff+1),
		strings.Repeat(" ", dom.AtomCutoff-1) + "5", strings.Repeat(" ", dom.AtomCutoff) + "5",
	}
	b := dom.NewBuilder("spellings.xml").Begin("r")
	for _, s := range spellings {
		b.Begin("e").Attrib("a", s).Text(s).End()
		b.Begin("m").Element("x", s).Element("y", s).End()
	}
	d := b.End().Done()
	if err := CheckRows(d); err != nil {
		t.Fatal(err)
	}
	for _, e := range d.Root.Descendants("e", nil) {
		s := e.StringValue()
		if value.KeyOf(value.NodeVal{Node: e.Attr("a")}) != value.KeyOf(value.NodeVal{Node: e}) {
			t.Errorf("%q: an attribute and an element of one value key apart", s)
		}
	}
}
