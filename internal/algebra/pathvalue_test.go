package algebra

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

const pathDoc = `<r><g k="1"><v>a</v><v>b</v><v>c</v></g><g k="2"><v>d</v></g><g/><g k="4"><v>e</v><v>f</v></g><n><n><x>z</x></n></n></r>`

// TestPathValueNormalForm: the value of a path expression has one form on
// both evaluators — no node is the nil sequence, one node is that node,
// several are a sequence of nodes in document order without duplicates.
func TestPathValueNormalForm(t *testing.T) {
	d := dom.MustParseString(pathDoc, "g.xml")
	root := value.NodeVal{Node: d.Root}
	gs := d.Root.Descendants("g", nil)
	g := func(i int) value.Value { return value.NodeVal{Node: gs[i]} }
	for _, c := range []struct {
		name  string
		ctx   value.Value
		path  string
		nodes string // the string values selected, comma-separated
	}{
		{"no node", g(2), "v", ""},
		{"no such attribute", g(2), "@k", ""},
		{"one element", g(1), "v", "d"},
		{"one attribute", g(0), "@k", "1"},
		{"several nodes", g(0), "v", "a,b,c"},
		{"[1]", g(0), "v[1]", "a"},
		{"[last()]", g(0), "v[last()]", "c"},
		{"[2] of one", g(1), "v[2]", ""},
		{"over a sequence of contexts, one node in all", value.Seq{g(2), g(1)}, "v", "d"},
		{"over a sequence of contexts", value.Seq{g(3), g(0)}, "v", "a,b,c,e,f"},
		{"over a one-member sequence", value.Seq{g(1)}, "v", "d"},
		{"over NULL", value.Null{}, "v", ""},
		{"over an atom", value.Str("x"), "v", ""},
		// Both n elements are contexts of //x and select the same x.
		{"descendants of overlapping contexts", root, "//n//x", "z"},
		{"several contexts, one node of each", root, "//g/v[1]", "a,d,e"},
	} {
		p := xpath.MustParse(c.path)
		want := p.Append(nil, c.ctx)
		var got []string
		for _, n := range want {
			got = append(got, n.StringValue())
		}
		if strings.Join(got, ",") != c.nodes {
			t.Fatalf("%s: %s selects %v, the table says %q", c.name, c.path, got, c.nodes)
		}
		plan := Map{Attr: "v", E: PathOf{Input: Var{Name: "c"}, Path: p},
			In: Map{In: Singleton{}, Attr: "c", E: ConstVal{V: c.ctx}}}
		for engine, ts := range map[string]value.TupleSeq{
			"row engine": RunIter(plan, NewCtx(nil), nil),
			"Op.Eval":    plan.Eval(NewCtx(nil), nil),
		} {
			if len(ts) != 1 {
				t.Fatalf("%s on the %s: %d tuples", c.name, engine, len(ts))
			}
			v := ts[0]["v"]
			switch len(want) {
			case 0:
				if s, ok := v.(value.Seq); !ok || s != nil {
					t.Errorf("%s on the %s: %#v, want the nil sequence", c.name, engine, v)
				}
			case 1:
				if v != (value.NodeVal{Node: want[0]}) {
					t.Errorf("%s on the %s: %#v, want the node itself", c.name, engine, v)
				}
			default:
				s, _ := v.(value.Seq)
				if len(s) != len(want) {
					t.Errorf("%s on the %s: %#v, want a sequence of %d nodes", c.name, engine, v, len(want))
					continue
				}
				for i, n := range want {
					if s[i] != (value.NodeVal{Node: n}) {
						t.Errorf("%s on the %s: item %d is %#v, want %v", c.name, engine, i, s[i], n)
					}
				}
			}
		}
	}
}

// groupsPlan is one row per g element of pathDoc, bound to "g".
func groupsPlan(d *dom.Document) Op {
	return UnnestMap{Attr: "g", E: PathOf{Input: Var{Name: "d"}, Path: xpath.MustParse("//g")},
		In: Map{In: Singleton{}, Attr: "d", E: ConstVal{V: value.NodeVal{Node: d.Root}}}}
}

// TestPathConsumersKeepNothingOfTheirBuffers: Υ over a path navigates into a
// buffer it reuses for the next input row, e[a] over a path into one that is
// gone when it returns. Every row is retained here while the run goes on,
// what has been emitted is wiped from Υ's buffer behind its back, and at the
// end each retained row still reads as the definitional evaluator's —
// selections of three, one, none and two nodes follow each other, so a
// shared backing would be overwritten.
func TestPathConsumersKeepNothingOfTheirBuffers(t *testing.T) {
	d := dom.MustParseString(pathDoc, "g.xml")
	v := xpath.MustParse("v")
	plan := Map{Attr: "all", E: BindTuples{Attr: "m", E: PathOf{Input: Var{Name: "g"}, Path: v}},
		In: UnnestMap{Attr: "v", PosAttr: "i", E: PathOf{Input: Var{Name: "g"}, Path: v},
			In: Map{Attr: "vs", E: BindTuples{Attr: "m", E: PathOf{Input: Var{Name: "g"}, Path: v}},
				In: groupsPlan(d)}}}
	want := plan.Eval(NewCtx(nil), nil)
	if len(want) != 6 {
		t.Fatalf("%d tuples, want one per v", len(want))
	}

	it := Resolve(plan).open(NewCtx(nil), nil)
	defer it.Close()
	unnest := it.(*rowMapIter).in.(*rowUnnestMapIter)
	if !unnest.byPath {
		t.Fatal("Υ over a path does not walk a node buffer")
	}
	var rows []value.Row
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		rows = append(rows, r)
		clear(unnest.nodes[:unnest.pos])
	}
	if cap(unnest.nodes) < 3 {
		t.Fatalf("Υ's buffer holds %d nodes: it was not reused from row to row", cap(unnest.nodes))
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if !value.TupleEqual(r.Tuple(), want[i]) {
			t.Errorf("row %d re-read after the run: %v, want %v", i, r.Tuple(), want[i])
		}
	}

	// e[a] over a path and ΠA cut their payloads from a slab each keeps for
	// the open: a payload retained while more than a hundred later ones are
	// built re-reads unchanged, and its backing ends where its members do.
	var xml strings.Builder
	xml.WriteString("<r>")
	for i := 0; i < 160; i++ {
		fmt.Fprintf(&xml, `<g k="%d">`, i)
		for j := 0; j < i%4; j++ {
			fmt.Fprintf(&xml, "<v>%d</v>", 10*i+j)
		}
		xml.WriteString("</g>")
	}
	xml.WriteString("</r>")
	gs := groupsPlan(dom.MustParseString(xml.String(), "many.xml"))
	pv := PathOf{Input: Var{Name: "g"}, Path: v}
	for name, op := range map[string]Op{
		"e[a]": Map{In: gs, Attr: "p", E: BindTuples{Attr: "m", E: pv}},
		"ΠA": GroupUnary{In: UnnestMap{In: gs, Attr: "v", E: pv}, G: "p", By: []string{"g"},
			Theta: value.CmpEq, F: SFProject{Attrs: []string{"v"}}},
	} {
		want := op.Eval(NewCtx(nil), nil)
		n := Resolve(op)
		rows := n.rows(NewCtx(nil), nil, nil)
		if len(rows) != len(want) || len(rows) < 101 {
			t.Fatalf("%s: %d rows, want %d (over a hundred)", name, len(rows), len(want))
		}
		slot, _ := n.Schema.Lay.Slot("p")
		for i, r := range rows {
			if !value.TupleEqual(r.Tuple(), want[i]) {
				t.Fatalf("%s: payload %d re-read after the run: %v, want %v", name, i, r.Vals[slot], want[i]["p"])
			}
			flat := reflect.ValueOf(r.Vals[slot]).FieldByName("flat")
			if flat.Len() != flat.Cap() {
				t.Errorf("%s: payload %d has %d values and room for %d", name, i, flat.Len(), flat.Cap())
			}
		}
	}
}

// TestUnnestMapReadsOneItemInPlace: Υ over an expression that is not a path
// reads a single item through its own one-element array, and what it has
// emitted does not change when the next row's item lands there.
func TestUnnestMapReadsOneItemInPlace(t *testing.T) {
	d := dom.MustParseString(pathDoc, "g.xml")
	plan := UnnestMap{Attr: "n", PosAttr: "i", In: groupsPlan(d),
		E: Call{Fn: "count", Args: []Expr{PathOf{Input: Var{Name: "g"}, Path: xpath.MustParse("v")}}}}
	iterMatches(t, plan)
	got := RunIter(plan, NewCtx(nil), nil)
	var counts []string
	for _, tup := range got {
		counts = append(counts, tup["n"].String()+"@"+tup["i"].String())
	}
	if strings.Join(counts, " ") != "3@1 1@1 0@1 2@1" {
		t.Errorf("Υ over count(g/v): %v", counts)
	}
	// One row in, one row out, nothing allocated per row beyond the row chunk.
	it := Resolve(plan).open(NewCtx(nil), nil).(*rowUnnestMapIter)
	defer it.Close()
	if it.byPath {
		t.Fatal("Υ over a function call took the path walk")
	}
	if _, ok := it.Next(); !ok || &it.items[0] != &it.one[0] {
		t.Errorf("a single item is not read through the iterator's own array")
	}
}

// TestOneMemberSequenceIsItsItemToBuiltinsAndSerialization: x and Seq{x} are
// indistinguishable to the sequence functions, the atomizing functions, the
// aggregates and Ξ's serializer.
func TestOneMemberSequenceIsItsItemToBuiltinsAndSerialization(t *testing.T) {
	d := dom.MustParseString(`<r><a k="7">12</a><a>abc</a><a> 2.50 </a></r>`, "t.xml")
	as := d.Root.Descendants("a", nil)
	for _, x := range []value.Value{
		value.NodeVal{Node: as[0]}, value.NodeVal{Node: as[1]}, value.NodeVal{Node: as[2]}, value.NodeVal{Node: as[0].Attr("k")},
		value.Str("abc"), value.Str("12"), value.Str("a<b"), value.Int(7), value.Float(2.5), value.Bool(true),
	} {
		for _, sx := range []value.Value{value.Seq{x}, value.Seq{value.Seq{x}}} {
			for _, fn := range []string{"count", "exists", "empty", "string", "decimal", "number", "distinct-values",
				"min", "max", "sum", "avg", "data", "string-length", "zero-or-one", "exactly-one", "boolean", "not"} {
				a, b := callV(fn, x), callV(fn, sx)
				if fn == "zero-or-one" || fn == "exactly-one" {
					// They hand the argument on; what it serializes to is what counts.
					a, b = value.Str(printed(a)), value.Str(printed(b))
				}
				if !value.DeepEqual(a, b) {
					t.Errorf("%s(%#v) = %#v, of %#v %#v", fn, x, a, sx, b)
				}
			}
			for _, fn := range []string{"contains", "starts-with", "ends-with", "concat"} {
				if a, b := callV(fn, x, value.Str("1")), callV(fn, sx, value.Str("1")); !value.DeepEqual(a, b) {
					t.Errorf("%s(%#v, \"1\") = %#v, of %#v %#v", fn, x, a, sx, b)
				}
			}
			if printed(x) != printed(sx) {
				t.Errorf("serialized %#v: WriteValue %q / %q wrapped", x, printed(x), printed(sx))
			}
			if a, b := evalArith('+', x, value.Int(1)), evalArith('+', sx, value.Int(1)); !value.DeepEqual(a, b) {
				t.Errorf("%#v + 1 = %#v, of %#v %#v", x, a, sx, b)
			}
		}
	}
}
