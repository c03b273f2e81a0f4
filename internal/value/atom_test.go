package value

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"nalquery/internal/dom"
)

// The atom rule (compare.go) pinned twice: as a table over an atom corpus
// that names the NaN and Bool cases, and as FuzzCompareAtoms over atoms
// made from arbitrary texts. Both hold the derived readers to the
// invariants the unnesting equivalences need: a hash key is equal exactly
// when = holds, and the sort order agrees with the comparison.

// checkAtoms asserts, over every pair and triple of the present values:
//   - KeyOf(a) == KeyOf(b), and SameKey(a, b), exactly when
//     CompareAtomic(a, b, =), and equal keys hash alike under two seeds,
//     alone and chained into a key of two columns;
//   - = is reflexive and symmetric;
//   - where a pair is ordered (one of <, =, > holds), exactly one holds, <=,
//     >= and != follow, and Compare3 has the same sign; an unordered pair
//     has every operator but != false;
//   - Compare3 is antisymmetric, and transitive on triples that are all
//     numbers or all text.
func checkAtoms(t *testing.T, vals []Value) {
	t.Helper()
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	for _, a := range vals {
		if !CompareAtomic(a, a, CmpEq) {
			t.Errorf("%#v = itself is false", a)
		}
		for _, b := range vals {
			eq := CompareAtomic(a, b, CmpEq)
			if (KeyOf(a) == KeyOf(b)) != eq || SameKey(a, b) != eq {
				t.Errorf("%#v = %#v is %v, but KeyOf equal is %v and SameKey %v", a, b, eq, KeyOf(a) == KeyOf(b), SameKey(a, b))
			}
			if ka, kb := KeyOf(a), KeyOf(b); ka == kb {
				// Equal keys hash alike under every seed, as one column and
				// as either column of a key of two.
				for _, seed := range []uint64{7, 0x9e3779b97f4a7c15} {
					if ka.Hash(seed) != kb.Hash(seed) || ka.Hash(ka.Hash(seed)) != kb.Hash(kb.Hash(seed)) {
						t.Errorf("%#v and %#v have one key, but it hashes apart under seed %#x", a, b, seed)
					}
				}
			}
			if eq != CompareAtomic(b, a, CmpEq) {
				t.Errorf("%#v = %#v is %v, the other way round %v", a, b, eq, !eq)
			}
			var holds [6]bool
			for i, op := range ops {
				holds[i] = CompareAtomic(a, b, op)
			}
			lt, gt := holds[2], holds[4]
			c := Compare3(a, b)
			switch n := btoi(lt) + btoi(eq) + btoi(gt); {
			case n > 1:
				t.Errorf("%#v vs %#v: <, =, > hold %v, %v, %v", a, b, lt, eq, gt)
			case n == 1:
				if holds[1] == eq || holds[3] != (lt || eq) || holds[5] != (gt || eq) {
					t.Errorf("%#v vs %#v: operators %v disagree with one another", a, b, holds)
				}
				if (c < 0) != lt || (c == 0) != eq || (c > 0) != gt {
					t.Errorf("%#v vs %#v: Compare3 = %d, but <, =, > hold %v, %v, %v", a, b, c, lt, eq, gt)
				}
			default:
				if holds != [6]bool{1: true} {
					t.Errorf("%#v vs %#v unordered, but operators %v", a, b, holds)
				}
			}
			if c != -Compare3(b, a) {
				t.Errorf("Compare3(%#v, %#v) = %d, the other way round %d", a, b, c, Compare3(b, a))
			}
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				if !sameSort(a, b, c) {
					continue
				}
				ab, bc, ac := Compare3(a, b), Compare3(b, c), Compare3(a, c)
				if ab <= 0 && bc <= 0 && (ac > 0 || ac == 0 && (ab < 0 || bc < 0)) {
					t.Errorf("Compare3 not transitive: %#v, %#v, %#v give %d, %d, %d", a, b, c, ab, bc, ac)
				}
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sameSort reports whether the three values are all numbers or all text.
func sameSort(vals ...Value) bool {
	_, first := Number(vals[0])
	for _, v := range vals[1:] {
		if _, num := Number(v); num != first {
			return false
		}
	}
	return true
}

func TestAtomRule(t *testing.T) {
	b := dom.NewBuilder("atoms.xml").Begin("r")
	texts := []string{"NaN", "-0", " 7 ", "1e1", "Infinity", "true", "", "x", "5"}
	for _, s := range texts {
		b.Element("a", s)
	}
	var nodes []*dom.Node
	nodes = b.End().Done().Root.Descendants("a", nodes)
	node, text := map[string]Value{}, map[string]Value{}
	for i, s := range texts {
		node[s], text[s] = NodeVal{Node: nodes[i]}, NodeText{Node: nodes[i]}
	}
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	lay := NewLayout("b", "a")
	present := []Value{
		Int(0), Int(5), Int(7), Int(-3), Int(10),
		Float(0), Float(negZero), Float(nan), Float(math.Inf(1)), Float(math.Inf(-1)), Float(1.5), Float(10),
		Bool(true), Bool(false),
		Str("1"), Str("0"), Str(" 7 "), Str("1e1"), Str("-0"), Str("NaN"), Str("nan"), Str("Infinity"), Str("-Inf"),
		Str("inf"), Str("1.0"), Str("1e400"), Str("true"), Str("false"), Str(""), Str(" "), Str("x"), Str(" x"),
		Str("nanjing"),
		node["NaN"], node["-0"], node[" 7 "], node["1e1"], node["Infinity"], node["true"], node[""], node["x"],
		text["NaN"], text["-0"], text[" 7 "], text["1e1"], text["Infinity"], text["true"], text[""], text["x"],
		Seq{text["5"]},
		Seq{Str("5")}, Seq{Null{}, Str("x"), Int(1)}, Seq{Seq{}, node["NaN"]},
		TupleSeq{{"a": Str("1.0"), "b": Seq{}}}, BindRowSeqLay(NewLayout("x"), Seq{Str("NaN"), Int(2)}),
		RowSeqOfFlat(lay, []Value{nil, Bool(true), node["5"], Str("x")}),
	}
	checkAtoms(t, present)

	// Absent values: the zero key, and every comparison false.
	for _, a := range []Value{nil, Null{}, Seq{}, Seq{Null{}, Seq{}}, TupleSeq{}, BindRowSeqLay(NewLayout("x"), nil)} {
		if KeyOf(a) != (HashKey{}) {
			t.Errorf("KeyOf(%#v) = %v, want the zero key", a, KeyOf(a))
		}
		if _, ok := Number(a); ok {
			t.Errorf("Number(%#v) reports a number", a)
		}
		for _, b := range present {
			if CompareAtomic(a, b, CmpEq) || CompareAtomic(b, a, CmpNe) || Compare3(a, b) >= 0 {
				t.Errorf("%#v vs %#v: absent compares", a, b)
			}
		}
	}

	// The NaN rule: NaN equals NaN, has no order with any other number, and
	// sorts before every other number.
	nans := []Value{Float(nan), Str("NaN"), Str(" nan "), node["NaN"], text["NaN"], Seq{node["NaN"]}}
	for _, x := range nans {
		for _, y := range nans {
			if !CompareAtomic(x, y, CmpEq) || !CompareAtomic(x, y, CmpLe) || CompareAtomic(x, y, CmpNe) || Compare3(x, y) != 0 {
				t.Errorf("NaN %#v and NaN %#v are not equal", x, y)
			}
		}
		for _, y := range []Value{Int(5), Float(negZero), Float(math.Inf(-1)), Str(" 7 "), node["1e1"], Bool(false)} {
			for _, op := range []CmpOp{CmpEq, CmpLt, CmpLe, CmpGt, CmpGe} {
				if CompareAtomic(x, y, op) || CompareAtomic(y, x, op) {
					t.Errorf("NaN %#v %s %#v holds", x, op, y)
				}
			}
			if !CompareAtomic(x, y, CmpNe) || Compare3(x, y) != -1 || Compare3(y, x) != 1 {
				t.Errorf("NaN %#v vs %#v: != false or not sorted first", x, y)
			}
		}
		// Against text, NaN is its text "NaN".
		if !CompareAtomic(x, Str("x"), CmpLt) {
			t.Errorf("NaN %#v < x is false", x)
		}
	}

	// The Bool rule: a number, 1 or 0, whose text against text is "1"/"0".
	for _, c := range []struct {
		a, b Value
		eq   bool
	}{
		{Bool(true), Int(1), true}, {Bool(true), Str("1"), true}, {Bool(true), Str(" 1.0 "), true},
		{Bool(false), Float(negZero), true}, {Bool(false), node["-0"], true},
		{Bool(true), Str("true"), false}, {Bool(true), node["true"], false}, {Bool(true), text["true"], false},
		{Bool(false), Str("false"), false}, {Bool(false), text["-0"], true},
		{Bool(true), Bool(false), false},
	} {
		if CompareAtomic(c.a, c.b, CmpEq) != c.eq || (KeyOf(c.a) == KeyOf(c.b)) != c.eq {
			t.Errorf("%#v = %#v: want %v", c.a, c.b, c.eq)
		}
	}
	if f, ok := Number(Bool(true)); f != 1 || !ok {
		t.Errorf("Number(true) = %v, %v", f, ok)
	}
	if !CompareAtomic(Bool(true), Str("x"), CmpLt) || !CompareAtomic(Bool(false), Str("true"), CmpLt) {
		t.Errorf("a Bool against text does not compare as \"1\"/\"0\"")
	}

	// Number reads text the way comparison does, and nothing else.
	for v, want := range map[Value]float64{Str(" 7 "): 7, node["1e1"]: 10, text["1e1"]: 10, Str("-Inf"): math.Inf(-1), Float(negZero): 0} {
		if f, ok := Number(v); !ok || math.Float64bits(f) != math.Float64bits(want) {
			t.Errorf("Number(%#v) = %v, %v, want %v", v, f, ok, want)
		}
	}
	for _, v := range []Value{Str("x"), Str(""), node["true"], text["true"], Str("1e400"), Str("0x10")} {
		if _, ok := Number(v); ok {
			t.Errorf("Number(%#v) reads text as a number", v)
		}
	}
}

// FuzzCompareAtoms builds atoms from three arbitrary texts — each as a Str,
// as an element node, as that node's NodeText, and as an Int, a Float or a
// Bool when it parses as one — and holds every pair and triple of them to
// checkAtoms, whose keys hash alike under two seeds wherever they are equal.
// A node reads the atom its row keeps (dom.Node.Atom): its number must be
// dom.ParseNumber's bit for bit. The seeds include spellings the row word
// holds inline (" 12 ", "1e3", "65.95", "0.1", "+.5", "0x1p-2"), ones it
// boxes ("-0", "NaN", "inf", "2147483648") and one that is text ("1e400",
// out of float64's range).
func FuzzCompareAtoms(f *testing.F) {
	for _, seed := range [][3]string{
		{"NaN", "5", "x"}, {"-0", "0", " 0 "}, {"true", "1", "false"}, {"Infinity", "-Inf", "1e400"},
		{" 7 ", "7.0", "1e1"}, {"", " ", "nan"}, {"9007199254740993", "9007199254740992", "0x1p-2"},
		{"-0", " 12 ", "1e3"}, {"65.95", "0.1", "+.5"}, {"NaN", "inf", "1e400"}, {"2147483648", "0x1p-2", "12"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, a, b, c string) {
		texts := []string{a, b, c}
		bld := dom.NewBuilder("fuzz.xml").Begin("r")
		for _, s := range texts {
			bld.Element("a", s)
		}
		nodes := bld.End().Done().Root.Descendants("a", nil)
		var vals []Value
		for i, s := range texts {
			f, isNum := Number(NodeVal{Node: nodes[i]})
			if wf, ok := dom.ParseNumber(s); isNum != ok || math.Float64bits(f) != math.Float64bits(wf) {
				t.Errorf("%q: the row reads %v (%v), ParseNumber %v (%v)", s, f, isNum, wf, ok)
			}
			vals = append(vals, Str(s), NodeVal{Node: nodes[i]}, NodeText{Node: nodes[i]})
			if n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64); err == nil {
				vals = append(vals, Int(n))
			} else if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
				vals = append(vals, Float(f))
			} else if b, err := strconv.ParseBool(s); err == nil {
				vals = append(vals, Bool(b))
			}
		}
		checkAtoms(t, vals)
	})
}
