package value

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nalquery/internal/dom"
)

func TestCompareAtomicNumericPromotion(t *testing.T) {
	cases := []struct {
		a, b Value
		op   CmpOp
		want bool
	}{
		{Int(1), Int(2), CmpLt, true},
		{Int(2), Int(2), CmpEq, true},
		{Int(2), Int(2), CmpNe, false},
		{Str("10"), Int(9), CmpGt, true},      // numeric promotion: 10 > 9
		{Str("10"), Str("9"), CmpGt, true},    // both parse numerically
		{Str("abc"), Str("abd"), CmpLt, true}, // string comparison
		{Str("1994"), Int(1993), CmpGt, true}, // the Q5 @year comparison
		{Float(63.5), Float(65.95), CmpLt, true},
		{Str(" 42 "), Int(42), CmpEq, true}, // whitespace-trimmed numeric
	}
	for _, c := range cases {
		if got := CompareAtomic(c.a, c.b, c.op); got != c.want {
			t.Errorf("CompareAtomic(%v %s %v) = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestCompareWithNull(t *testing.T) {
	if CompareAtomic(Null{}, Int(1), CmpEq) || CompareAtomic(Int(1), Null{}, CmpLe) {
		t.Fatalf("comparisons against NULL must be false")
	}
}

func TestGeneralCompareExistential(t *testing.T) {
	// "a simple '=' has existential semantics in case either side contains a
	// sequence" (Sec. 5.1).
	seq := Seq{Str("x"), Str("y")}
	if !GeneralCompare(Str("y"), seq, CmpEq) {
		t.Fatalf("y = (x,y) must hold")
	}
	if GeneralCompare(Str("z"), seq, CmpEq) {
		t.Fatalf("z = (x,y) must not hold")
	}
	if GeneralCompare(Str("x"), Seq{}, CmpEq) {
		t.Fatalf("comparison with empty sequence must be false")
	}
	// Both sides sequences: any pair.
	if !GeneralCompare(Seq{Int(1), Int(5)}, Seq{Int(5), Int(9)}, CmpEq) {
		t.Fatalf("(1,5) = (5,9) must hold")
	}
}

func TestMemberOverTupleSeq(t *testing.T) {
	// The ∈ predicate of Eqvs. 4/5 ranges over e[a]-style tuple sequences.
	seq := TupleSeq{{"a'": Str("u")}, {"a'": Str("v")}}
	if !Member(Str("v"), seq) {
		t.Fatalf("v ∈ (u,v) must hold")
	}
	if Member(Str("w"), seq) {
		t.Fatalf("w ∈ (u,v) must not hold")
	}
}

func TestAtomizeNode(t *testing.T) {
	doc := dom.MustParseString(`<r><author><last>L</last><first>F</first></author></r>`, "t.xml")
	a := doc.RootElement().FirstChildElement("author")
	atoms := Atomize(NodeVal{Node: a})
	if len(atoms) != 1 || atoms[0].String() != "LF" {
		t.Fatalf("node atomization = %v", atoms)
	}
}

func TestKeyCanonicalization(t *testing.T) {
	// Numeric values of different lexical forms share a key (consistent with
	// CompareAtomic equality).
	if KeyOf(Str("1")) != KeyOf(Int(1)) || KeyOf(Str("1.0")) != KeyOf(Float(1)) {
		t.Fatalf("numeric keys must coincide: %v %v", KeyOf(Str("1")), KeyOf(Int(1)))
	}
	if KeyOf(Str("a")) == KeyOf(Str("b")) {
		t.Fatalf("distinct strings must have distinct keys")
	}
	if KeyOf(Null{}) == KeyOf(Str("")) {
		t.Fatalf("NULL and empty string must differ")
	}
}

// TestKeyConsistentWithEquality: equal atoms have equal keys and unequal
// atoms (under CompareAtomic) have unequal keys.
func TestKeyConsistentWithEquality(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := []Value{
			Int(int64(rng.Intn(5))),
			Float(float64(rng.Intn(5))),
			Str("s"), Str("t"), Bool(true), Str("1"), Str("true"),
		}
		a := vals[rng.Intn(len(vals))]
		b := vals[rng.Intn(len(vals))]
		return CompareAtomic(a, b, CmpEq) == (KeyOf(a) == KeyOf(b))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveBool(t *testing.T) {
	trues := []Value{Bool(true), Int(1), Float(0.5), Str("x"), Seq{Int(1)}, TupleSeq{{}}}
	falses := []Value{Bool(false), Int(0), Float(0), Str(""), Seq{}, TupleSeq{}, Null{}, nil}
	for _, v := range trues {
		if !EffectiveBool(v) {
			t.Errorf("EffectiveBool(%v) = false", v)
		}
	}
	for _, v := range falses {
		if EffectiveBool(v) {
			t.Errorf("EffectiveBool(%v) = true", v)
		}
	}
}

func TestDeepEqualCrossKindNumeric(t *testing.T) {
	if !DeepEqual(Int(3), Float(3)) || !DeepEqual(Float(3), Int(3)) {
		t.Fatalf("Int/Float numeric equality must hold")
	}
	if DeepEqual(Int(3), Str("3")) {
		t.Fatalf("Int and Str are distinct under DeepEqual")
	}
	a := TupleSeq{{"x": Seq{Int(1)}}}
	b := TupleSeq{{"x": Seq{Int(1)}}}
	if !DeepEqual(a, b) {
		t.Fatalf("structural equality fails")
	}
}
