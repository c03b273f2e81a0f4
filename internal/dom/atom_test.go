package dom_test

import (
	"strings"
	"testing"
	"unsafe"

	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/value/valuetest"
)

// TestRowIs40Bytes pins the row: the atom word lives in what was padding.
// TestDocumentBytesPerNode's bound would still pass a 48-byte row, the
// harness's heap_after_setup_mb bound would not.
func TestRowIs40Bytes(t *testing.T) {
	if got := unsafe.Sizeof(dom.Node{}); got != 40 {
		t.Fatalf("a row is %d bytes, want 40", got)
	}
}

// TestDeepTextKeepsNoAtom: 100 000 elements nested around one 1 MiB text.
// Every row's string value is longer than the cutoff, so none keeps an atom
// (Done reads at most AtomCutoff bytes a row), and each still keys and
// reads as its text does — here a number padded with white space.
func TestDeepTextKeepsNoAtom(t *testing.T) {
	const depth = 100000
	pad := strings.Repeat(" ", 1<<19)
	b := dom.NewBuilder("deep.xml")
	for i := 0; i < depth; i++ {
		b.Begin("e")
	}
	b.Text(pad + "12" + pad)
	for i := 0; i < depth; i++ {
		b.End()
	}
	d := b.Done()
	for i := 0; i < d.NumNodes(); i++ {
		if _, _, _, known := d.Node(i).Atom(); known {
			t.Fatalf("row %d of %d keeps an atom of a %d-byte value", i, d.NumNodes(), len(d.Node(i).StringValue()))
		}
	}
	for i := 0; i < d.NumNodes(); i += 997 {
		n := d.Node(i)
		if value.KeyOf(value.NodeVal{Node: n}) != value.KeyOf(value.Str(n.StringValue())) ||
			value.KeyOf(value.NodeVal{Node: n}) != value.KeyOf(value.Int(12)) {
			t.Fatalf("row %d does not key as 12", i)
		}
	}

	// The same nesting around a short text: every row keeps the text's atom.
	b = dom.NewBuilder("shallow.xml")
	for i := 0; i < depth; i++ {
		b.Begin("e")
	}
	b.Text(" 12 ")
	for i := 0; i < depth; i++ {
		b.End()
	}
	if err := valuetest.CheckRows(b.Done()); err != nil {
		t.Fatal(err)
	}
}
