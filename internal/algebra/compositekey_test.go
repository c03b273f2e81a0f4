package algebra

import (
	"math"
	"testing"

	"nalquery/internal/value"
)

// TestCompositeKeysDoNotCollide: a multi-column key must distinguish
// (x="a|s:b", y="c") from (x="a", y="b|s:c"). The definitional evaluator
// once keyed by joining the per-column Key strings with '|', under which
// the two tuples coincide: ⟕/⋉ matched and ▷ dropped on x=u ∧ y=v, unary Γ
// merged the two groups and binary Γ counted a foreign member. Eval and the slot engine must agree on the right answer.
//
// The table also holds keys that are equal under the key rule without being
// byte-equal (one number in four spellings, -0 and 0, NaN and NaN, absent and
// absent) and one pair that is not (absent and ""), each through the join and
// grouping family, and µD over members that hold one value in different
// attributes, which are not duplicates.
func TestCompositeKeysDoNotCollide(t *testing.T) {
	a := value.Tuple{"x": value.Str("a|s:b"), "y": value.Str("c")}
	b := value.Tuple{"x": value.Str("a"), "y": value.Str("b|s:c")}
	both := constOp{ts: value.TupleSeq{a, b}, attrs: []string{"x", "y"}}
	left := constOp{ts: value.TupleSeq{a}, attrs: []string{"x", "y"}}
	right := constOp{
		ts:    value.TupleSeq{{"u": b["x"], "v": b["y"]}},
		attrs: []string{"u", "v"},
	}
	// The ⟕ build side also carries g: a match keeps its 1, a left tuple
	// without partner gets count(ε) = 0.
	rightG := constOp{
		ts:    value.TupleSeq{{"u": b["x"], "v": b["y"], "g": value.Int(1)}},
		attrs: []string{"u", "v", "g"},
	}
	pred := AndExpr{L: eqCmp("x", "u"), R: eqCmp("y", "v")}
	xy, uv := []string{"x", "y"}, []string{"u", "v"}

	counts := func(ts value.TupleSeq) []int64 {
		out := make([]int64, len(ts))
		for i, tp := range ts {
			out[i] = int64(tp["g"].(value.Int))
		}
		return out
	}
	type keyCase struct {
		name   string
		op     Op
		rows   int
		groups []int64 // expected g per row, for the Γ family
	}
	cases := []keyCase{
		{"⟕", OuterJoin{L: left, R: rightG, Pred: pred, G: "g", Default: SFCount{}}, 1, []int64{0}},
		{"⋉", SemiJoin{L: left, R: right, Pred: pred}, 0, nil},
		{"▷", AntiJoin{L: left, R: right, Pred: pred}, 1, nil},
		{"Γ unary", GroupUnary{In: both, G: "g", By: xy, Theta: value.CmpEq, F: SFCount{}}, 2, []int64{1, 1}},
		{"Γ self", GroupSelf{In: both, G: "g", By: xy, F: SFCount{}}, 2, []int64{1, 1}},
		{"Γ binary", GroupBinary{L: left, R: right, G: "g", LAttrs: xy, RAttrs: uv,
			Theta: value.CmpEq, F: SFCount{}}, 1, []int64{0}},
	}
	// Each key class: vals[0] joins vals[1:] (its partners on x = u), and all
	// of vals are grouped on x. nil is an absent attribute.
	one := func(attr string, v value.Value) value.Tuple {
		if v == nil {
			return value.Tuple{}
		}
		return value.Tuple{attr: v}
	}
	for _, k := range []struct {
		name                   string
		vals                   []value.Value
		semi                   int     // ⋉ rows: 1 when vals[0] has a partner
		outer                  []int64 // ⟕: g per row, 1 for a partner, 0 for none
		unary, self, binaryCnt []int64 // group counts of Γ, Γ-self and binary Γ
	}{
		{"1 spelt four ways", []value.Value{value.Str("1"), value.Int(1), value.Str(" 1.0 "), value.Float(1)},
			1, []int64{1, 1, 1}, []int64{4}, []int64{4, 4, 4, 4}, []int64{3}},
		{"-0 and 0", []value.Value{value.Float(math.Copysign(0, -1)), value.Int(0)},
			1, []int64{1}, []int64{2}, []int64{2, 2}, []int64{1}},
		{"NaN and NaN", []value.Value{value.Float(math.NaN()), value.Float(math.NaN())},
			1, []int64{1}, []int64{2}, []int64{2, 2}, []int64{1}},
		{"absent and absent", []value.Value{nil, nil},
			1, []int64{1}, []int64{2}, []int64{2, 2}, []int64{1}},
		{"absent and empty text", []value.Value{nil, value.Str("")},
			0, []int64{0}, []int64{1, 1}, []int64{1, 1}, []int64{0}},
	} {
		var all, rs, rsG value.TupleSeq
		for i, v := range k.vals {
			all = append(all, one("x", v))
			if i > 0 {
				rs = append(rs, one("u", v))
				g := one("u", v)
				g["g"] = value.Int(1)
				rsG = append(rsG, g)
			}
		}
		l := constOp{ts: all[:1], attrs: []string{"x"}}
		r := constOp{ts: rs, attrs: []string{"u"}}
		in := constOp{ts: all, attrs: []string{"x"}}
		x, u := []string{"x"}, []string{"u"}
		cases = append(cases, []keyCase{
			{k.name + " ⋉", SemiJoin{L: l, R: r, Pred: eqCmp("x", "u")}, k.semi, nil},
			{k.name + " ▷", AntiJoin{L: l, R: r, Pred: eqCmp("x", "u")}, 1 - k.semi, nil},
			{k.name + " ⟕", OuterJoin{L: l, R: constOp{ts: rsG, attrs: []string{"u", "g"}}, Pred: eqCmp("x", "u"),
				G: "g", Default: SFCount{}}, len(k.outer), k.outer},
			{k.name + " Γ unary", GroupUnary{In: in, G: "g", By: x, Theta: value.CmpEq, F: SFCount{}}, len(k.unary), k.unary},
			{k.name + " Γ self", GroupSelf{In: in, G: "g", By: x, F: SFCount{}}, len(k.self), k.self},
			{k.name + " Γ binary", GroupBinary{L: l, R: r, G: "g", LAttrs: x, RAttrs: u,
				Theta: value.CmpEq, F: SFCount{}}, len(k.binaryCnt), k.binaryCnt},
		}...)
	}
	// µD over one payload whose members hold "x" in a and in b: under the
	// layout (a, b) they are ("x", ⊥) and (⊥, "x"), two members.
	payload := value.RowSeqOfFlat(value.NewLayout("a", "b"), []value.Value{value.Str("x"), nil, nil, value.Str("x")})
	cases = append(cases, keyCase{"µD same value, other attribute", UnnestDistinct{Attr: "p",
		In: Map{In: Singleton{}, Attr: "p", E: ConstVal{V: payload}}}, 2, nil})

	for _, c := range cases {
		want := c.op.Eval(NewCtx(nil), nil)
		if got := RunIter(native(c.op), NewCtx(nil)); !value.TupleSeqEqual(want, got) {
			t.Errorf("%s: Eval %s ≠ RunIter %s", c.name, want, got)
		}
		if len(want) != c.rows {
			t.Errorf("%s: Eval returns %d rows, want %d: %s", c.name, len(want), c.rows, want)
			continue
		}
		if c.groups != nil {
			for i, n := range counts(want) {
				if n != c.groups[i] {
					t.Errorf("%s: row %d has group count %d, want %d", c.name, i, n, c.groups[i])
				}
			}
		}
	}
}
