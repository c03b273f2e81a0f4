package algebra

import (
	"testing"

	"nalquery/internal/value"
)

// The join family falls back to nested-loop evaluation when no equality
// pair can be extracted from the predicate. These tests pin the fallback
// paths and their order preservation.

func ltPred() Expr {
	return CmpExpr{L: Var{Name: "A1"}, R: Var{Name: "A2"}, Op: value.CmpLt}
}

// TestJoinNonEquiFallback: a predicate without an equality pair takes the
// nested loop, in the order of the definition — every left tuple, its
// partners in right order, or its ⊥-padded row.
func TestJoinNonEquiFallback(t *testing.T) {
	out := eval(t, OuterJoin{L: relR1(), R: relR2(), Pred: ltPred(), G: "B", Default: SFCount{}})
	// A1=1 lies below the two A2=2 rows; A1=2 and A1=3 below none.
	want := value.TupleSeq{
		{"A1": value.Int(1), "A2": value.Int(2), "B": value.Int(4)},
		{"A1": value.Int(1), "A2": value.Int(2), "B": value.Int(5)},
		{"A1": value.Int(2), "A2": value.Null{}, "B": value.Int(0)},
		{"A1": value.Int(3), "A2": value.Null{}, "B": value.Int(0)},
	}
	if !value.TupleSeqEqual(out, want) {
		t.Fatalf("non-equi ⟕: %s", out)
	}
}

func TestSemiAntiNonEquiFallback(t *testing.T) {
	semi := eval(t, SemiJoin{L: relR1(), R: relR2(), Pred: ltPred()})
	if len(semi) != 1 || !value.DeepEqual(semi[0]["A1"], value.Int(1)) {
		t.Fatalf("non-equi semijoin: %s", semi)
	}
	anti := eval(t, AntiJoin{L: relR1(), R: relR2(), Pred: ltPred()})
	if len(anti) != 2 {
		t.Fatalf("non-equi antijoin: %s", anti)
	}
}

func TestOuterJoinNonEquiFallback(t *testing.T) {
	grouped := GroupUnary{In: relR2(), G: "g", By: []string{"A2"}, Theta: value.CmpEq, F: SFCount{}}
	oj := OuterJoin{L: relR1(), R: grouped, Pred: ltPred(), G: "g", Default: SFCount{}}
	out := eval(t, oj)
	// Grouped keys are {1, 2}. A1=1 matches key 2 (1 row); A1=2 and A1=3
	// match nothing and are ⊥-padded. Total 3.
	if len(out) != 3 {
		t.Fatalf("non-equi outer join size: %d (%s)", len(out), out)
	}
	if !value.DeepEqual(out[len(out)-1]["g"], value.Int(0)) {
		t.Fatalf("padded default: %s", out)
	}
}

func TestJoinIteratorNonEquiFallback(t *testing.T) {
	for _, op := range []Op{
		SemiJoin{L: relR1(), R: relR2(), Pred: ltPred()},
		AntiJoin{L: relR1(), R: relR2(), Pred: ltPred()},
		OuterJoin{L: relR1(), R: relR2(), Pred: ltPred(), G: "B", Default: SFCount{}},
	} {
		a := op.Eval(NewCtx(nil), nil)
		b := RunIter(native(op), NewCtx(nil))
		if !value.TupleSeqEqual(a, b) {
			t.Fatalf("%s: iterator non-equi fallback differs", op)
		}
	}
}

// TestXiSideEffectsOnceUnderIterator: a pipeline breaker materializes its
// input inside the iterator tree; Ξ output must still be emitted exactly
// once.
func TestXiSideEffectsOnceUnderIterator(t *testing.T) {
	xi := XiGroup{
		In: relR2(),
		By: []string{"A2"},
		S1: []Command{LitCmd("[")},
		S2: []Command{ExprCmd(Var{Name: "B"})},
		S3: []Command{LitCmd("]")},
	}
	ctx := NewCtx(nil)
	DrainIter(native(xi), ctx, nil)
	if ctx.OutString() != "[23][45]" {
		t.Fatalf("group Ξ under iterator: %q", ctx.OutString())
	}
	// Simple Ξ streams natively.
	xs := XiSimple{In: relR1(), Cmds: []Command{ExprCmd(Var{Name: "A1"})}}
	ctx2 := NewCtx(nil)
	DrainIter(native(xs), ctx2, nil)
	if ctx2.OutString() != "123" {
		t.Fatalf("simple Ξ under iterator: %q", ctx2.OutString())
	}
}

// TestResidualOnHashPath: an equality pair with an extra non-equality
// conjunct uses the hash path plus residual filtering.
func TestResidualOnHashPath(t *testing.T) {
	pred := AndExpr{
		L: eqCmp("A1", "A2"),
		R: CmpExpr{L: Var{Name: "B"}, R: ConstVal{V: value.Int(3)}, Op: value.CmpGe},
	}
	// A1=1 keeps (1,3) of its bucket, A1=2 both of its own, A1=3 has none
	// and is padded, B taking count(ε) = 0.
	want := value.TupleSeq{
		{"A1": value.Int(1), "A2": value.Int(1), "B": value.Int(3)},
		{"A1": value.Int(2), "A2": value.Int(2), "B": value.Int(4)},
		{"A1": value.Int(2), "A2": value.Int(2), "B": value.Int(5)},
		{"A1": value.Int(3), "A2": value.Null{}, "B": value.Int(0)},
	}
	oj := OuterJoin{L: relR1(), R: relR2(), Pred: pred, G: "B", Default: SFCount{}}
	if out := eval(t, oj); !value.TupleSeqEqual(out, want) {
		t.Fatalf("hash+residual ⟕: %s", out)
	}
	diffOp(t, "⟕ hash+residual", oj)
	semi := eval(t, SemiJoin{L: relR1(), R: relR2(), Pred: pred})
	if len(semi) != 2 || !value.DeepEqual(semi[1]["A1"], value.Int(2)) {
		t.Fatalf("hash+residual ⋉: %s", semi)
	}
}

// TestCorrelatedNestedJoinEnv: a join's right side may reference free
// variables from an enclosing nested evaluation; Eval must evaluate
// it under that environment.
func TestCorrelatedNestedJoinEnv(t *testing.T) {
	inner := SemiJoin{
		L:    relR1(),
		R:    Select{In: relR2(), Pred: CmpExpr{L: Var{Name: "B"}, R: Var{Name: "outer"}, Op: value.CmpLe}},
		Pred: eqCmp("A1", "A2"),
	}
	outerPlan := Map{
		In:   constOp{ts: value.TupleSeq{{"outer": value.Int(3)}}, attrs: []string{"outer"}},
		Attr: "n",
		E:    NestedApply{F: SFCount{}, Plan: inner},
	}
	out := eval(t, outerPlan)
	// R2 rows with B ≤ 3: [1,2],[1,3]; only A1=1 has a partner → 1.
	if !value.DeepEqual(out[0]["n"], value.Int(1)) {
		t.Fatalf("correlated join under env: %s", out)
	}
}
