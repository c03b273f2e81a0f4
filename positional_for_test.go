package nalquery

import (
	"strings"
	"testing"
)

// Tests for XQuery's positional for binding "for $x at $i in e" — a
// construct that only makes sense in the ordered context: $i is the 1-based
// position of $x within the range sequence, which the engine's
// order-preserving Υ operator assigns directly.

func posEngine(t *testing.T) *Engine {
	t.Helper()
	eng := NewEngine()
	if err := eng.LoadXMLString("bib.xml", `<bib>
		<book><title>alpha</title></book>
		<book><title>beta</title></book>
		<book><title>gamma</title></book>
		<book><title>delta</title></book>
	</bib>`); err != nil {
		t.Fatal(err)
	}
	return eng
}

func squash(s string) string { return strings.Join(strings.Fields(s), "") }

// TestPositionalForBinding: positions count the range sequence, 1-based,
// in document order.
func TestPositionalForBinding(t *testing.T) {
	eng := posEngine(t)
	out, err := eng.Query(`
let $d := doc("bib.xml")
for $b at $i in $d//book
return <r>{ $i }:{ string($b/title) }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	want := "<r>1:alpha</r><r>2:beta</r><r>3:gamma</r><r>4:delta</r>"
	if squash(out) != want {
		t.Errorf("got %q, want %q", squash(out), want)
	}
}

// TestPositionalForBeforeWhere: per XQuery, $i is the position in the
// range, assigned before the where clause filters.
func TestPositionalForBeforeWhere(t *testing.T) {
	eng := posEngine(t)
	out, err := eng.Query(`
let $d := doc("bib.xml")
for $b at $i in $d//book
where $i > 2
return <r>{ $i }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	want := "<r>3</r><r>4</r>"
	if squash(out) != want {
		t.Errorf("got %q, want %q", squash(out), want)
	}
}

// TestPositionalForInPredicate: the positional variable joins into
// value predicates, e.g. selecting every other item.
func TestPositionalForEveryOther(t *testing.T) {
	eng := posEngine(t)
	out, err := eng.Query(`
let $d := doc("bib.xml")
for $b at $i in $d//book
where ($i mod 2) = 1
return <r>{ string($b/title) }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	want := "<r>alpha</r><r>gamma</r>"
	if squash(out) != want {
		t.Errorf("got %q, want %q", squash(out), want)
	}
}

// TestPositionalForBothEngines: the iterator engine assigns the same
// positions.
func TestPositionalForBothEngines(t *testing.T) {
	eng := posEngine(t)
	q, err := eng.Compile(`
let $d := doc("bib.xml")
for $b at $i in $d//book
return <r>{ $i }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	str, _, err := execute(q, "")
	if err != nil {
		t.Fatal(err)
	}
	mat, _, err := execute(q, "", WithReferenceEngine())
	if err != nil {
		t.Fatal(err)
	}
	if mat != str {
		t.Errorf("reference %q != slot engine %q", mat, str)
	}
}

// TestPositionalForResetsPerOuterTuple: in a nested iteration the position
// restarts for every outer binding.
func TestPositionalForResetsPerOuterTuple(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadXMLString("g.xml", `<g>
		<grp><v>a</v><v>b</v></grp>
		<grp><v>c</v></grp>
	</g>`); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Query(`
let $d := doc("g.xml")
for $g in $d//grp
for $v at $i in $g/v
return <r>{ $i }:{ string($v) }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	want := "<r>1:a</r><r>2:b</r><r>1:c</r>"
	if squash(out) != want {
		t.Errorf("got %q, want %q", squash(out), want)
	}
}

// TestPositionalForOverPerRowValues: Υ walks a path's selection in a buffer
// it reuses from row to row and reads any other single item without wrapping
// it; the position counts within each row's value either way. Books with no,
// one and several authors, a path that yields exactly one node, and two
// non-path expressions whose value is one item — every plan, both evaluators.
func TestPositionalForOverPerRowValues(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadXMLString("bib.xml", `<bib>
		<book><title>alpha</title></book>
		<book><title>beta</title><author>X</author></book>
		<book><title>gamma</title><author>Y</author><author>Z</author><author>W</author></book>
	</bib>`); err != nil {
		t.Fatal(err)
	}
	for text, want := range map[string]string{
		`let $d := doc("bib.xml") for $b in $d//book for $a at $i in $b/author
		 return <r>{ string($b/title) }:{ $i }:{ string($a) }</r>`: "<r>beta:1:X</r><r>gamma:1:Y</r><r>gamma:2:Z</r><r>gamma:3:W</r>",
		`let $d := doc("bib.xml") for $b in $d//book for $t at $i in $b/title
		 return <r>{ $i }:{ $t }</r>`: "<r>1:<title>alpha</title></r><r>1:<title>beta</title></r><r>1:<title>gamma</title></r>",
		`let $d := doc("bib.xml") for $b in $d//book for $s at $i in string($b/title)
		 return <r>{ $i }:{ $s }</r>`: "<r>1:alpha</r><r>1:beta</r><r>1:gamma</r>",
		`let $d := doc("bib.xml") for $b in $d//book for $n at $i in count($b/author)
		 return <r>{ $i }:{ $n }</r>`: "<r>1:0</r><r>1:1</r><r>1:3</r>",
	} {
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		for _, p := range q.Plans() {
			for _, opts := range [][]RunOption{nil, {WithReferenceEngine()}} {
				out, _, err := execute(q, p.Name, opts...)
				if err != nil {
					t.Fatalf("%s [%s]: %v", text, p.Name, err)
				}
				if squash(out) != want {
					t.Errorf("%s [%s, reference=%v]: got %q, want %q", text, p.Name, opts != nil, squash(out), want)
				}
			}
		}
	}
}
