package algebra

import (
	"testing"

	"nalquery/internal/value"
)

// TestCompositeKeysDoNotCollide: a multi-column key must distinguish
// (x="a|s:b", y="c") from (x="a", y="b|s:c"). The definitional evaluator
// once keyed by joining the per-column Key strings with '|', under which
// the two tuples coincide: ⟕/⋉ matched and ▷ dropped on x=u ∧ y=v, unary Γ
// merged the two groups and binary Γ counted a foreign member. Eval and the slot engine must agree on the right answer.
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
	cases := []struct {
		name   string
		op     Op
		rows   int
		groups []int64 // expected g per row, for the Γ family
	}{
		{"⟕", OuterJoin{L: left, R: rightG, Pred: pred, G: "g", Default: SFCount{}}, 1, []int64{0}},
		{"⋉", SemiJoin{L: left, R: right, Pred: pred}, 0, nil},
		{"▷", AntiJoin{L: left, R: right, Pred: pred}, 1, nil},
		{"Γ unary", GroupUnary{In: both, G: "g", By: xy, Theta: value.CmpEq, F: SFCount{}}, 2, []int64{1, 1}},
		{"Γ self", GroupSelf{In: both, G: "g", By: xy, F: SFCount{}}, 2, []int64{1, 1}},
		{"Γ binary", GroupBinary{L: left, R: right, G: "g", LAttrs: xy, RAttrs: uv,
			Theta: value.CmpEq, F: SFCount{}}, 1, []int64{0}},
	}
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
