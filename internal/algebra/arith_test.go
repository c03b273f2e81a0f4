package algebra

import (
	"testing"

	"nalquery/internal/value"
)

func TestArithExpr(t *testing.T) {
	n := func(f float64) Expr { return ConstVal{V: value.Float(f)} }
	cases := []struct {
		e    Expr
		want value.Value
	}{
		{ArithExpr{L: n(2), R: n(3), Op: '+'}, value.Float(5)},
		{ArithExpr{L: n(2), R: n(3), Op: '-'}, value.Float(-1)},
		{ArithExpr{L: n(2), R: n(3), Op: '*'}, value.Float(6)},
		{ArithExpr{L: n(6), R: n(3), Op: '/'}, value.Float(2)},
		{ArithExpr{L: n(7), R: n(3), Op: '%'}, value.Float(1)},
		{ArithExpr{L: n(1), R: n(0), Op: '/'}, value.Null{}},
		{ArithExpr{L: n(1), R: n(0), Op: '%'}, value.Null{}},
		{ArithExpr{L: ConstVal{V: value.Str("abc")}, R: n(1), Op: '+'}, value.Null{}},
		{ArithExpr{L: ConstVal{V: value.Null{}}, R: n(1), Op: '+'}, value.Null{}},
		// Untyped string operands promote numerically.
		{ArithExpr{L: ConstVal{V: value.Str("10")}, R: n(4), Op: '-'}, value.Float(6)},
	}
	for _, c := range cases {
		got := c.e.Eval(NewCtx(nil), nil)
		if !value.DeepEqual(got, c.want) {
			t.Errorf("%s = %v, want %v", c.e.String(), got, c.want)
		}
	}
}

func TestArithString(t *testing.T) {
	e := ArithExpr{L: Var{Name: "x"}, R: ConstVal{V: value.Int(1)}, Op: '/'}
	if e.String() != "(x div 1)" {
		t.Fatalf("arith string: %s", e.String())
	}
	m := ArithExpr{L: Var{Name: "x"}, R: ConstVal{V: value.Int(2)}, Op: '%'}
	if m.String() != "(x mod 2)" {
		t.Fatalf("mod string: %s", m.String())
	}
	fv := map[string]bool{}
	FreeVars(e, fv)
	if !fv["x"] {
		t.Fatalf("arith free vars: %v", fv)
	}
}

func TestExtendedBuiltins(t *testing.T) {
	cases := []struct {
		fn   string
		args []value.Value
		want value.Value
	}{
		{"unordered", []value.Value{value.Seq{value.Int(1)}}, value.Seq{value.Int(1)}},
		{"string-length", []value.Value{value.Str("héllo")}, value.Int(5)},
		{"string-length", []value.Value{value.Null{}}, value.Int(0)},
		{"starts-with", []value.Value{value.Str("Stevens"), value.Str("Ste")}, value.Bool(true)},
		{"starts-with", []value.Value{value.Str("Stevens"), value.Str("eve")}, value.Bool(false)},
		{"ends-with", []value.Value{value.Str("Stevens"), value.Str("ens")}, value.Bool(true)},
		{"upper-case", []value.Value{value.Str("abc")}, value.Str("ABC")},
		{"lower-case", []value.Value{value.Str("AbC")}, value.Str("abc")},
		{"normalize-space", []value.Value{value.Str("  a  b \n c ")}, value.Str("a b c")},
	}
	for _, c := range cases {
		got := evalBuiltin(c.fn, c.args)
		if !value.DeepEqual(got, c.want) {
			t.Errorf("%s(%v) = %v, want %v", c.fn, c.args, got, c.want)
		}
	}
	// data() atomizes.
	got := evalBuiltin("data", []value.Value{value.Seq{value.Str("a"), value.Str("b")}})
	if s, ok := got.(value.Seq); !ok || len(s) != 2 {
		t.Errorf("data() = %v", got)
	}
}
