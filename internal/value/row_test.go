package value

import (
	"testing"
)

func TestLayoutBasics(t *testing.T) {
	l := NewLayout("a", "b", "c")
	if l == nil || l.Width() != 3 {
		t.Fatalf("layout: %v", l)
	}
	if s, ok := l.Slot("b"); !ok || s != 1 {
		t.Fatalf("slot b: %d %v", s, ok)
	}
	if NewLayout("a", "a") != nil {
		t.Fatalf("duplicate names must be rejected")
	}
}

func TestLayoutConcat(t *testing.T) {
	l := NewLayout("a", "b")
	r := NewLayout("c")
	cat, ok := l.Concat(r)
	if !ok || cat.Width() != 3 {
		t.Fatalf("concat: %v %v", cat, ok)
	}
	if s, _ := cat.Slot("c"); s != 2 {
		t.Fatalf("concat slot: %d", s)
	}
	if _, ok := l.Concat(NewLayout("b")); ok {
		t.Fatalf("colliding concat must fail")
	}
}

func TestLayoutRenameSwap(t *testing.T) {
	l := NewLayout("a", "b", "keep")
	nl := l.Rename(map[string]string{"a": "b", "b": "a"})
	if nl == nil {
		t.Fatalf("swap rename failed")
	}
	// Slots are preserved: the value at old a's slot is now named b.
	if s, _ := nl.Slot("b"); s != 0 {
		t.Fatalf("swap: b at slot %d", s)
	}
	if s, _ := nl.Slot("a"); s != 1 {
		t.Fatalf("swap: a at slot %d", s)
	}
	if s, _ := nl.Slot("keep"); s != 2 {
		t.Fatalf("swap: keep at slot %d", s)
	}
	// A rename that collides with an untouched attribute fails over to map
	// semantics.
	if l.Rename(map[string]string{"a": "keep"}) != nil {
		t.Fatalf("colliding rename must fail")
	}
}

func TestLayoutProjectDrop(t *testing.T) {
	l := NewLayout("a", "b", "c")
	pl, src := l.Project([]string{"c", "missing"})
	if pl.Width() != 2 || src[0] != 2 || src[1] != -1 {
		t.Fatalf("project mapping: %v %v", pl.Names(), src)
	}
	dl, dsrc := l.Drop([]string{"b"})
	if dl.Width() != 2 || dsrc[0] != 0 || dsrc[1] != 2 {
		t.Fatalf("drop mapping: %v %v", dl.Names(), dsrc)
	}
}

// RowFromTuple builds the row of a map tuple under a layout: attributes
// outside the layout are dropped, slots the tuple lacks stay nil (absent).
func RowFromTuple(lay *Layout, t Tuple) Row {
	r := NewRow(lay)
	for i, n := range lay.Names() {
		if v, ok := t[n]; ok {
			r.Vals[i] = v
		}
	}
	return r
}

func TestRowTupleRoundTrip(t *testing.T) {
	lay := NewLayout("a", "b", "c")
	r := RowFromTuple(lay, Tuple{"a": Int(1), "c": Str("x")})
	if r.Vals[1] != nil {
		t.Fatalf("missing attr must stay nil")
	}
	back := r.Tuple()
	if len(back) != 2 || !DeepEqual(back["a"], Int(1)) || !DeepEqual(back["c"], Str("x")) {
		t.Fatalf("round trip: %s", back)
	}
	if got := r.Value("c"); !DeepEqual(got, Str("x")) {
		t.Fatalf("Value: %v", got)
	}
	if got := r.Value("nope"); got != nil {
		t.Fatalf("absent Value: %v", got)
	}
}

func TestConcatRows(t *testing.T) {
	l := NewLayout("a")
	r := NewLayout("b")
	cat, _ := l.Concat(r)
	out := ConcatRows(cat, make([]Value, 2), RowFromTuple(l, Tuple{"a": Int(1)}), RowFromTuple(r, Tuple{"b": Int(2)}))
	if !DeepEqual(out.Value("a"), Int(1)) || !DeepEqual(out.Value("b"), Int(2)) {
		t.Fatalf("concat rows: %s", out.Tuple())
	}
}

// keysEqualByRule is what KeyOf(a) == KeyOf(b) and SameKey(a, b) must say: = holds under the
// atom rule, or both values atomize to nothing.
func keysEqualByRule(a, b Value) bool {
	return CompareAtomic(a, b, CmpEq) || len(Atomize(a)) == 0 && len(Atomize(b)) == 0
}

func TestKeyOfMatchesKey(t *testing.T) {
	nan := Float(0)
	nan = Float(float64(nan) / float64(nan)) // NaN via arithmetic
	vals := []Value{
		nil, Null{}, Bool(true), Bool(false), Int(3), Float(3), Float(3.5),
		Str("3"), Str(" 3.0 "), Str("abc"), Str(""), Seq{}, Seq{Int(7)},
		Seq{Null{}, Str("x")}, TupleSeq{{"a": Int(1)}},
		nan, Str("NaN"), Str("inf"), Str("-Inf"), Str("Infinity"), Str("nanjing"),
		Float(negZero()), Str("-0"), Int(0),
	}
	for i, a := range vals {
		for j, b := range vals {
			want := keysEqualByRule(a, b)
			if got := KeyOf(a) == KeyOf(b); got != want || SameKey(a, b) != want {
				t.Errorf("KeyOf or SameKey disagrees with the atom rule for #%d vs #%d: %v/%v/%v", i, j, want, got, SameKey(a, b))
			}
		}
	}
}

// benchTuple/benchRow build equivalent 6-attribute inputs for the
// map-vs-slot comparison benchmarks.
func benchNames() []string { return []string{"a", "b", "c", "d", "e", "f"} }

func benchTuple() Tuple {
	t := Tuple{}
	for i, n := range benchNames() {
		t[n] = Int(int64(i))
	}
	return t
}

func benchRow() Row {
	lay := NewLayout(benchNames()...)
	return RowFromTuple(lay, benchTuple())
}

// BenchmarkRowConcat compares tuple concatenation t ◦ u: map rebuild vs one
// slice copy.
func BenchmarkRowConcat(b *testing.B) {
	t1, t2 := benchTuple(), benchTuple()
	r1 := benchRow()
	lay2 := NewLayout("g", "h", "i", "j", "k", "l")
	r2 := Row{Lay: lay2, Vals: r1.Vals}
	cat, _ := r1.Lay.Concat(lay2)
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Concat with disjoint names, as a join would.
			u := make(Tuple, len(t1)+len(t2))
			for k, v := range t1 {
				u[k] = v
			}
			for k, v := range t2 {
				u["r"+k] = v
			}
			_ = u
		}
	})
	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ConcatRows(cat, make([]Value, cat.Width()), r1, r2)
		}
	})
}

// BenchmarkRowProject compares ΠA: map rebuild with hashing vs a slot copy.
func BenchmarkRowProject(b *testing.B) {
	t1 := benchTuple()
	r1 := benchRow()
	names := []string{"b", "d", "f"}
	pl, src := r1.Lay.Project(names)
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = t1.Project(names)
		}
	})
	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = MapSlots(pl, make([]Value, len(src)), src, r1)
		}
	})
}

// negZero builds -0.0 without a constant expression (which Go folds to +0).
func negZero() float64 {
	z := 0.0
	return -z
}

// TestKeyNegativeZero pins the fold of -0 into +0 on every key form: the
// comparison semantics treat them equal, so grouping must too.
func TestKeyNegativeZero(t *testing.T) {
	if KeyOf(Float(negZero())) != KeyOf(Int(0)) || KeyOf(Str("-0")) != KeyOf(Float(0)) {
		t.Fatalf("KeyOf(-0) != KeyOf(0)")
	}
	vals, slots := []Value{Str("-0"), Float(negZero()), Int(1)}, []int{0, 1, 2}
	zeros := []Value{Int(0), Str("0"), Int(1)}
	if !SameSlots(vals, slots, zeros, slots) || HashSlots(vals, slots) != HashSlots(zeros, slots) {
		t.Fatalf("a wide key tells -0 from 0")
	}
}
