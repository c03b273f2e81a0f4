package algebra

import (
	"math"
	"testing"

	"nalquery/internal/value"
)

func callV(fn string, args ...value.Value) value.Value {
	return evalBuiltin(fn, args)
}

func wantStr(t *testing.T, got value.Value, want string) {
	t.Helper()
	s, ok := got.(value.Str)
	if !ok || string(s) != want {
		t.Errorf("got %v (%T), want %q", got, got, want)
	}
}

func wantNum(t *testing.T, got value.Value, want float64) {
	t.Helper()
	switch w := got.(type) {
	case value.Float:
		if float64(w) != want {
			t.Errorf("got %v, want %g", w, want)
		}
	case value.Int:
		if float64(w) != want {
			t.Errorf("got %v, want %g", w, want)
		}
	default:
		t.Errorf("got %v (%T), want number %g", got, got, want)
	}
}

// TestSubstring: 1-based positions, optional length, rune safety, clamping.
func TestSubstring(t *testing.T) {
	wantStr(t, callV("substring", value.Str("motor car"), value.Float(6)), " car")
	wantStr(t, callV("substring", value.Str("metadata"), value.Float(4), value.Float(3)), "ada")
	wantStr(t, callV("substring", value.Str("abc"), value.Float(0)), "abc")
	wantStr(t, callV("substring", value.Str("abc"), value.Float(10)), "")
	wantStr(t, callV("substring", value.Str("äöü"), value.Float(2), value.Float(1)), "ö")
	wantStr(t, callV("substring", value.Null{}, value.Float(1)), "")
}

// TestSubstringBeforeAfter: standard XPath behaviour, empty on no match.
func TestSubstringBeforeAfter(t *testing.T) {
	wantStr(t, callV("substring-before", value.Str("1999/04/01"), value.Str("/")), "1999")
	wantStr(t, callV("substring-after", value.Str("1999/04/01"), value.Str("/")), "04/01")
	wantStr(t, callV("substring-before", value.Str("abc"), value.Str("z")), "")
	wantStr(t, callV("substring-after", value.Str("abc"), value.Str("z")), "")
	wantStr(t, callV("substring-before", value.Str("abc"), value.Str("")), "")
}

// TestStringJoin: joins atomized items with the separator.
func TestStringJoin(t *testing.T) {
	wantStr(t, callV("string-join",
		value.Seq{value.Str("a"), value.Str("b"), value.Str("c")}, value.Str("-")), "a-b-c")
	wantStr(t, callV("string-join", value.Seq{}, value.Str("-")), "")
}

// TestTranslateFn: character mapping, deletion for unmapped characters.
func TestTranslateFn(t *testing.T) {
	wantStr(t, callV("translate", value.Str("bar"), value.Str("abc"), value.Str("ABC")), "BAr")
	wantStr(t, callV("translate", value.Str("--aaa--"), value.Str("abc-"), value.Str("ABC")), "AAA")
}

// TestRoundingFamily: abs, floor, ceiling, round (half to +inf).
func TestRoundingFamily(t *testing.T) {
	wantNum(t, callV("abs", value.Float(-3.5)), 3.5)
	wantNum(t, callV("floor", value.Float(2.7)), 2)
	wantNum(t, callV("floor", value.Float(-2.1)), -3)
	wantNum(t, callV("ceiling", value.Float(2.1)), 3)
	wantNum(t, callV("ceiling", value.Float(-2.7)), -2)
	wantNum(t, callV("round", value.Float(2.5)), 3)
	wantNum(t, callV("round", value.Float(-2.5)), -2)
	wantNum(t, callV("round", value.Str("3.2")), 3)
	if _, ok := callV("round", value.Str("x")).(value.Null); !ok {
		t.Errorf("round on non-numeric must be empty")
	}
}

// TestRoundingPastInt64AndNaN: floor, ceiling, round and mod are the
// floating-point operations, so nothing truncates through int64 (1e20 came
// back as -9223372036854775808) and NaN stays NaN.
func TestRoundingPastInt64AndNaN(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	cases := []struct {
		fn   string
		args []value.Value
		want float64
	}{
		{"floor", []value.Value{value.Float(1e20)}, 1e20},
		{"ceiling", []value.Value{value.Float(1e20)}, 1e20},
		{"round", []value.Value{value.Float(1e20)}, 1e20},
		{"floor", []value.Value{value.Float(-1e20)}, -1e20},
		{"floor", []value.Value{value.Float(-2.5)}, -3},
		{"ceiling", []value.Value{value.Float(-2.5)}, -2},
		{"round", []value.Value{value.Float(-2.5)}, -2},
		{"floor", []value.Value{value.Float(nan)}, nan},
		{"ceiling", []value.Value{value.Str("NaN")}, nan},
		{"round", []value.Value{value.Float(nan)}, nan},
		{"floor", []value.Value{value.Float(negZero)}, 0},
		{"ceiling", []value.Value{value.Str("-0")}, negZero},
		{"round", []value.Value{value.Float(0)}, 0},
		{"%", []value.Value{value.Float(1e20), value.Int(7)}, 2},
		{"%", []value.Value{value.Float(7.5), value.Int(2)}, 1.5},
		{"%", []value.Value{value.Float(-7.5), value.Int(2)}, -1.5},
		{"%", []value.Value{value.Float(nan), value.Int(7)}, nan},
		{"%", []value.Value{value.Int(7), value.Float(nan)}, nan},
		{"%", []value.Value{value.Str("-0"), value.Int(7)}, negZero},
	}
	for _, c := range cases {
		var got value.Value
		if c.fn == "%" {
			got = evalArith('%', c.args[0], c.args[1])
		} else {
			got = callV(c.fn, c.args...)
		}
		f, ok := got.(value.Float)
		same := float64(f) == c.want && math.Signbit(float64(f)) == math.Signbit(c.want) || f != f && c.want != c.want
		if !ok || !same {
			t.Errorf("%s%v = %#v, want %v", c.fn, c.args, got, c.want)
		}
	}
	for _, r := range []value.Value{value.Int(0), value.Float(negZero), value.Str("0")} {
		if got := evalArith('%', value.Int(7), r); got != (value.Null{}) {
			t.Errorf("7 mod %#v = %#v, want empty", r, got)
		}
	}
}

// TestBooleanFn: effective boolean value.
func TestBooleanFn(t *testing.T) {
	cases := []struct {
		in   value.Value
		want bool
	}{
		{value.Str(""), false},
		{value.Str("x"), true},
		{value.Int(0), false},
		{value.Int(1), true},
		{value.Seq{}, false},
		{value.Seq{value.Int(0)}, true}, // non-empty sequence
		{value.Null{}, false},
	}
	for _, c := range cases {
		if got := callV("boolean", c.in); bool(got.(value.Bool)) != c.want {
			t.Errorf("boolean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCardinalityFns: zero-or-one and exactly-one.
func TestCardinalityFns(t *testing.T) {
	one := value.Seq{value.Int(7)}
	two := value.Seq{value.Int(7), value.Int(8)}
	if _, ok := callV("zero-or-one", two).(value.Null); !ok {
		t.Errorf("zero-or-one on two items must be empty")
	}
	if got := callV("zero-or-one", one); !value.DeepEqual(got, one) {
		t.Errorf("zero-or-one on one item must pass through, got %v", got)
	}
	if _, ok := callV("exactly-one", value.Seq{}).(value.Null); !ok {
		t.Errorf("exactly-one on empty must be empty")
	}
	if got := callV("exactly-one", one); !value.DeepEqual(got, one) {
		t.Errorf("exactly-one on one item must pass through, got %v", got)
	}
}
