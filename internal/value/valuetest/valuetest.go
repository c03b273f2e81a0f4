// Package valuetest holds documents to the atom rule of internal/value as
// their rows carry it: the loaders' tests (the scanner, the store decoder,
// the generators) call CheckRows on every document they build.
package valuetest

import (
	"fmt"
	"math"

	"nalquery/internal/dom"
	"nalquery/internal/value"
)

// CheckRows reports the first row of d whose atom reads differently from
// its string value read as a Str: its key (value.KeyOf, for the node and for
// its NodeText) or its number, which must be dom.ParseNumber's bit for bit.
// A row keeps its atom exactly when its string value is at most
// dom.AtomCutoff bytes.
func CheckRows(d *dom.Document) error {
	for i := 0; i < d.NumNodes(); i++ {
		n := d.Node(i)
		s := n.StringValue()
		want := value.KeyOf(value.Str(s))
		if got := value.KeyOf(value.NodeVal{Node: n}); got != want {
			return fmt.Errorf("row %d (%q): node key %v, text key %v", i, s, got, want)
		}
		if got := value.KeyOf(value.NodeText{Node: n}); got != want {
			return fmt.Errorf("row %d (%q): NodeText key %v, text key %v", i, s, got, want)
		}
		f, isNum := value.Number(value.NodeVal{Node: n})
		wf, wantNum := dom.ParseNumber(s)
		if isNum != wantNum || math.Float64bits(f) != math.Float64bits(wf) {
			return fmt.Errorf("row %d (%q): number %v (%v), ParseNumber %v (%v)", i, s, f, isNum, wf, wantNum)
		}
		if _, _, _, known := n.Atom(); known != (len(s) <= dom.AtomCutoff) {
			return fmt.Errorf("row %d: %d bytes of string value, atom known %v (cutoff %d)", i, len(s), known, dom.AtomCutoff)
		}
	}
	return nil
}
