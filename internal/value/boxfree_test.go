package value

import (
	"math"
	"math/rand"
	"testing"

	"nalquery/internal/dom"
)

// The box-free readers — GeneralCompare over items, KeyOf over a sequence's
// first item, AtomText, AppendItems — against their definitions in terms of
// Atomize and AtomizeSingle, on generated values that include NULL members,
// nested sequences and both tuple-sequence representations.

func textNodes(t *testing.T) []*dom.Node {
	t.Helper()
	doc, err := dom.ParseString(`<r><a>1</a><a> 1.0 </a><a>abc</a><a/><a k="7">x<b>y</b></a></r>`, "t.xml")
	if err != nil {
		t.Fatal(err)
	}
	nodes := doc.Root.Descendants("a", nil)
	return append(nodes, nodes[4].Attr("k"))
}

func genItem(rng *rand.Rand, nodes []*dom.Node) Value {
	switch rng.Intn(8) {
	case 0:
		return Int(int64(rng.Intn(4)))
	case 1:
		return Float([]float64{0, math.Copysign(0, -1), 1, 1.5, math.NaN(), math.Inf(1)}[rng.Intn(6)])
	case 2:
		return Str([]string{"1", "1.0", " 1 ", "-0", "NaN", "abc", "", "x"}[rng.Intn(8)])
	case 3:
		return Bool(rng.Intn(2) == 1)
	case 4:
		return Null{}
	case 5:
		return nil
	default:
		return NodeVal{Node: nodes[rng.Intn(len(nodes))]}
	}
}

func genValue(rng *rand.Rand, nodes []*dom.Node, depth int) Value {
	switch k := rng.Intn(10); {
	case k < 4 || depth == 0:
		return genItem(rng, nodes)
	case k < 7:
		s := make(Seq, rng.Intn(4))
		for i := range s {
			if rng.Intn(4) == 0 {
				s[i] = genValue(rng, nodes, depth-1)
			} else {
				s[i] = genItem(rng, nodes)
			}
		}
		return s
	case k < 8:
		ts := make(TupleSeq, rng.Intn(3))
		for i := range ts {
			ts[i] = Tuple{"b": genValue(rng, nodes, depth-1), "a": genItem(rng, nodes)}
		}
		return ts
	case k < 9:
		lay := NewLayout("b", "a")
		flat := make([]Value, 2*rng.Intn(3))
		for i := range flat {
			flat[i] = genValue(rng, nodes, depth-1)
		}
		return RowSeqOfFlat(lay, flat)
	default:
		return BindRowSeqLay(NewLayout("x"), Seq{genItem(rng, nodes), genItem(rng, nodes)})
	}
}

func TestBoxFreeReadersMatchAtomize(t *testing.T) {
	nodes := textNodes(t)
	rng := rand.New(rand.NewSource(17))
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	for iter := 0; iter < 20000; iter++ {
		a, b := genValue(rng, nodes, 2), genValue(rng, nodes, 2)

		// GeneralCompare ≡ ∃ pair of atoms satisfying θ.
		op := ops[rng.Intn(len(ops))]
		want := false
		for _, x := range Atomize(a) {
			for _, y := range Atomize(b) {
				want = want || CompareAtomic(x, y, op)
			}
		}
		if got := GeneralCompare(a, b, op); got != want {
			t.Fatalf("GeneralCompare(%v %s %v) = %v, atomized pairs say %v", a, op, b, got, want)
		}

		// KeyOf ≡ the key of the single atom.
		var wantKey HashKey
		if at := AtomizeSingle(a); at != nil {
			wantKey = KeyOf(at)
		}
		if got := KeyOf(a); got != wantKey {
			t.Fatalf("KeyOf(%v) = %+v, want %+v", a, got, wantKey)
		}

		// AtomText ≡ the single atom's string.
		at := AtomizeSingle(a)
		s, ok := AtomText(a)
		if ok != (at != nil) || (ok && s != at.String()) {
			t.Fatalf("AtomText(%v) = %q, %v; AtomizeSingle gives %v", a, s, ok, at)
		}

		// AppendItems ≡ Atomize with nodes left unboxed.
		atoms, items := Atomize(a), AppendItems(nil, a)
		if len(atoms) != len(items) {
			t.Fatalf("AppendItems(%v): %d items, Atomize has %d atoms", a, len(items), len(atoms))
		}
		for i := range items {
			// Kind and text, not DeepEqual: NaN is an atom too.
			at := AtomizeSingle(items[i])
			if !isItem(items[i]) || at.Kind() != atoms[i].Kind() || at.String() != atoms[i].String() {
				t.Fatalf("AppendItems(%v)[%d] = %v, atom %v", a, i, items[i], atoms[i])
			}
		}
	}
}

// TestKeyOfEquivalentToKey is HashKey's contract, over every pair of the
// lexical forms that meet in a dedup table: KeyOf(a) == KeyOf(b) exactly
// when = holds under the atom rule or both sides atomize to nothing.
func TestKeyOfEquivalentToKey(t *testing.T) {
	nodes := textNodes(t)
	forms := []Value{
		Str("1"), Str("1.0"), Str(" 1 "), Int(1), Float(1), Bool(true),
		Str("-0"), Float(math.Copysign(0, -1)), Int(0), Str("0"), Bool(false),
		Float(math.NaN()), Str("NaN"), Str("nan"), Str("abc"), Str(" abc"), Str(""),
		Null{}, nil, Seq{}, Seq{Null{}, Str("1")}, Seq{Seq{}, Int(1)},
		NodeVal{Node: nodes[0]}, NodeVal{Node: nodes[1]}, NodeVal{Node: nodes[2]}, NodeVal{Node: nodes[3]},
		TupleSeq{{"a": Str("1.0")}}, BindRowSeqLay(NewLayout("x"), Seq{Str("abc")}),
	}
	for _, a := range forms {
		for _, b := range forms {
			if want := keysEqualByRule(a, b); (KeyOf(a) == KeyOf(b)) != want {
				t.Errorf("%v vs %v: KeyOf equal %v, atom rule says %v (%v, %v)",
					a, b, KeyOf(a) == KeyOf(b), want, KeyOf(a), KeyOf(b))
			}
		}
	}
}

// TestBoxFreeReadersDoNotAllocate pins what the box-free readers are for.
func TestBoxFreeReadersDoNotAllocate(t *testing.T) {
	nodes := textNodes(t)
	n, seq := Value(NodeVal{Node: nodes[2]}), Value(Seq{NodeVal{Node: nodes[0]}, NodeVal{Node: nodes[2]}})
	str := Value(Str("abc"))
	for name, fn := range map[string]func(){
		"GeneralCompare item/seq": func() { GeneralCompare(str, seq, CmpEq) },
		"GeneralCompare seq/seq":  func() { GeneralCompare(seq, seq, CmpLt) },
		"GeneralCompare node":     func() { GeneralCompare(n, str, CmpEq) },
		"KeyOf seq":               func() { KeyOf(seq) },
		"AtomText seq":            func() { AtomText(seq) },
		"Number node":             func() { Number(n) },
		"Compare3 seq/node":       func() { Compare3(seq, n) },
		"AtomizeSingle node":      func() { AtomizeSingle(n) },
		"StringOf node":           func() { StringOf(n) },
		"Data node":               func() { Data(n) },
		"StringOf NodeText":       func() { StringOf(NodeText{Node: nodes[2]}) },
	} {
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", name, a)
		}
	}
}

func TestNumberAppendMatchesString(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -17, 1.5, 1e21, 1e300, -2.5e-7,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxInt64, 9007199254740993} {
		if got := string(Float(f).Append([]byte("x"))); got != "x"+Float(f).String() {
			t.Errorf("Float(%v).Append = %q, String %q", f, got, Float(f).String())
		}
	}
	for _, i := range []int64{0, -1, 42, math.MaxInt64, math.MinInt64} {
		if got := string(Int(i).Append(nil)); got != Int(i).String() {
			t.Errorf("Int(%d).Append = %q", i, got)
		}
	}
}
