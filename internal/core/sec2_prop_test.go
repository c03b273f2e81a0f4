package core

import (
	"math/rand"
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/value"
)

// Property-based tests for the Sec. 2 "familiar equivalences": both sides of
// every listed rule are constructed literally and compared over random
// ordered inputs, and the Simplify pass is checked to preserve plan results
// on composite plans.

func predOn(attr string, c int64, op value.CmpOp) algebra.Expr {
	return algebra.CmpExpr{L: algebra.Var{Name: attr}, R: algebra.ConstVal{V: value.Int(c)}, Op: op}
}

// TestSec2SelectCommute: σp1(σp2(e)) = σp2(σp1(e)).
func TestSec2SelectCommute(t *testing.T) {
	check(t, "σσ-commute", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randSeq(rng, []string{"A", "B"}, 8, 4)
		p1 := predOn("A", int64(rng.Intn(4)), randTheta(rng))
		p2 := predOn("B", int64(rng.Intn(4)), randTheta(rng))
		lhs := algebra.Select{In: algebra.Select{In: e, Pred: p2}, Pred: p1}
		rhs := algebra.Select{In: algebra.Select{In: e, Pred: p1}, Pred: p2}
		return value.TupleSeqEqual(evalOp(lhs), evalOp(rhs))
	})
}

// TestSec2SelectPushCross: σp(e1 × e2) = σp(e1) × e2 and = e1 × σp(e2).
func TestSec2SelectPushCross(t *testing.T) {
	check(t, "σ-push-×", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randSeq(rng, []string{"A1"}, 6, 4)
		e2 := randSeq(rng, []string{"A2"}, 6, 4)
		pL := predOn("A1", int64(rng.Intn(4)), randTheta(rng))
		pR := predOn("A2", int64(rng.Intn(4)), randTheta(rng))
		lhsL := algebra.Select{In: algebra.Cross{L: e1, R: e2}, Pred: pL}
		rhsL := algebra.Cross{L: algebra.Select{In: e1, Pred: pL}, R: e2}
		lhsR := algebra.Select{In: algebra.Cross{L: e1, R: e2}, Pred: pR}
		rhsR := algebra.Cross{L: e1, R: algebra.Select{In: e2, Pred: pR}}
		return value.TupleSeqEqual(evalOp(lhsL), evalOp(rhsL)) &&
			value.TupleSeqEqual(evalOp(lhsR), evalOp(rhsR))
	})
}

// TestSec2SelectPushJoin: σp1(e1 ⋈p2 e2) = σp1(e1) ⋈p2 e2 and
// = e1 ⋈p2 σp1(e2).
func TestSec2SelectPushJoin(t *testing.T) {
	check(t, "σ-push-⋈", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randSeq(rng, []string{"A1", "C"}, 6, 4)
		e2 := randSeq(rng, []string{"A2", "B"}, 6, 4)
		join := corrPred(value.CmpEq)
		pL := predOn("C", int64(rng.Intn(4)), randTheta(rng))
		pR := predOn("B", int64(rng.Intn(4)), randTheta(rng))
		lhsL := algebra.Select{In: algebra.Join{L: e1, R: e2, Pred: join}, Pred: pL}
		rhsL := algebra.Join{L: algebra.Select{In: e1, Pred: pL}, R: e2, Pred: join}
		lhsR := algebra.Select{In: algebra.Join{L: e1, R: e2, Pred: join}, Pred: pR}
		rhsR := algebra.Join{L: e1, R: algebra.Select{In: e2, Pred: pR}, Pred: join}
		return value.TupleSeqEqual(evalOp(lhsL), evalOp(rhsL)) &&
			value.TupleSeqEqual(evalOp(lhsR), evalOp(rhsR))
	})
}

// TestSec2SelectPushSemiAnti: σp1(e1 ⋉p2 e2) = σp1(e1) ⋉p2 e2, and the same
// for the anti-join ▷ (the companion rule the pass also uses).
func TestSec2SelectPushSemiAnti(t *testing.T) {
	check(t, "σ-push-⋉/▷", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randSeq(rng, []string{"A1", "C"}, 6, 4)
		e2 := randSeq(rng, []string{"A2"}, 6, 4)
		join := corrPred(value.CmpEq)
		p := predOn("C", int64(rng.Intn(4)), randTheta(rng))
		lhsS := algebra.Select{In: algebra.SemiJoin{L: e1, R: e2, Pred: join}, Pred: p}
		rhsS := algebra.SemiJoin{L: algebra.Select{In: e1, Pred: p}, R: e2, Pred: join}
		lhsA := algebra.Select{In: algebra.AntiJoin{L: e1, R: e2, Pred: join}, Pred: p}
		rhsA := algebra.AntiJoin{L: algebra.Select{In: e1, Pred: p}, R: e2, Pred: join}
		return value.TupleSeqEqual(evalOp(lhsS), evalOp(rhsS)) &&
			value.TupleSeqEqual(evalOp(lhsA), evalOp(rhsA))
	})
}

// TestSec2SelectPushOuter: σp1(e1 ⟕g:e p2 e2) = σp1(e1) ⟕g:e p2 e2.
func TestSec2SelectPushOuter(t *testing.T) {
	check(t, "σ-push-⟕", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randSeq(rng, []string{"A1", "C"}, 6, 4)
		e2 := randSeq(rng, []string{"A2", "g"}, 6, 4)
		join := corrPred(value.CmpEq)
		p := predOn("C", int64(rng.Intn(4)), randTheta(rng))
		oj := func(l algebra.Op) algebra.Op {
			return algebra.OuterJoin{L: l, R: e2, Pred: join, G: "g", Default: algebra.SFCount{}}
		}
		lhs := algebra.Select{In: oj(e1), Pred: p}
		rhs := oj(algebra.Select{In: e1, Pred: p})
		return value.TupleSeqEqual(evalOp(lhs), evalOp(rhs))
	})
}

// TestSec2CrossAssoc: e1 × (e2 × e3) = (e1 × e2) × e3.
func TestSec2CrossAssoc(t *testing.T) {
	check(t, "×-assoc", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randSeq(rng, []string{"A1"}, 4, 3)
		e2 := randSeq(rng, []string{"A2"}, 4, 3)
		e3 := randSeq(rng, []string{"A3"}, 4, 3)
		lhs := algebra.Cross{L: e1, R: algebra.Cross{L: e2, R: e3}}
		rhs := algebra.Cross{L: algebra.Cross{L: e1, R: e2}, R: e3}
		return value.TupleSeqEqual(evalOp(lhs), evalOp(rhs))
	})
}

// TestSec2JoinAssoc: e1 ⋈p1 (e2 ⋈p2 e3) = (e1 ⋈p1 e2) ⋈p2 e3 when p1 does
// not reference A(e3) and p2 does not reference A(e1).
func TestSec2JoinAssoc(t *testing.T) {
	check(t, "⋈-assoc", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randSeq(rng, []string{"A1"}, 5, 3)
		e2 := randSeq(rng, []string{"A2"}, 5, 3)
		e3 := randSeq(rng, []string{"A3"}, 5, 3)
		p1 := algebra.CmpExpr{L: algebra.Var{Name: "A1"}, R: algebra.Var{Name: "A2"}, Op: value.CmpEq}
		p2 := algebra.CmpExpr{L: algebra.Var{Name: "A2"}, R: algebra.Var{Name: "A3"}, Op: value.CmpEq}
		lhs := algebra.Join{L: e1, R: algebra.Join{L: e2, R: e3, Pred: p2}, Pred: p1}
		rhs := algebra.Join{L: algebra.Join{L: e1, R: e2, Pred: p1}, R: e3, Pred: p2}
		return value.TupleSeqEqual(evalOp(lhs), evalOp(rhs))
	})
}

// randComposite builds a random plan over three leaf inputs out of the
// operators the Simplify pass rewrites, with selections stacked on top so
// pushdown opportunities arise.
func randComposite(rng *rand.Rand) algebra.Op {
	e1 := randSeq(rng, []string{"A1", "C"}, 5, 3)
	e2 := randSeq(rng, []string{"A2", "B"}, 5, 3)
	e3 := randSeq(rng, []string{"A3"}, 4, 3)
	p1 := algebra.CmpExpr{L: algebra.Var{Name: "A1"}, R: algebra.Var{Name: "A2"}, Op: value.CmpEq}
	p2 := algebra.CmpExpr{L: algebra.Var{Name: "A2"}, R: algebra.Var{Name: "A3"}, Op: value.CmpEq}
	var base algebra.Op
	switch rng.Intn(4) {
	case 0:
		base = algebra.Join{L: e1, R: algebra.Join{L: e2, R: e3, Pred: p2}, Pred: p1}
	case 1:
		base = algebra.Cross{L: e1, R: algebra.Cross{L: e2, R: e3}}
	case 2:
		base = algebra.SemiJoin{L: algebra.Join{L: e1, R: e2, Pred: p1}, R: e3, Pred: p2}
	default:
		base = algebra.OuterJoin{L: algebra.Cross{L: e1, R: e2}, R: e3, Pred: p2,
			G: "A3", Default: algebra.SFCount{}}
	}
	// Stack one to three selections with mixed-side conjuncts.
	preds := []algebra.Expr{
		predOn("C", int64(rng.Intn(3)), randTheta(rng)),
		predOn("B", int64(rng.Intn(3)), randTheta(rng)),
		algebra.AndExpr{
			L: predOn("A1", int64(rng.Intn(3)), randTheta(rng)),
			R: predOn("A2", int64(rng.Intn(3)), randTheta(rng)),
		},
	}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		base = algebra.Select{In: base, Pred: preds[rng.Intn(len(preds))]}
	}
	return base
}

// TestSimplifyPreservesResults: the full Simplify pass never changes the
// result of a plan, ordered comparison, across random composite plans.
func TestSimplifyPreservesResults(t *testing.T) {
	check(t, "Simplify-preserves", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		plan := randComposite(rng)
		want := evalOp(plan)
		simplified, _ := Simplify(plan)
		return value.TupleSeqEqual(want, evalOp(simplified))
	})
}

// TestSimplifySinksSelections: after Simplify, no selection remains directly
// above a cross product or join when all its conjuncts were pushable.
func TestSimplifySinksSelections(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e1 := randSeq(rng, []string{"A1", "C"}, 5, 3)
	e2 := randSeq(rng, []string{"A2", "B"}, 5, 3)
	join := corrPred(value.CmpEq)
	plan := algebra.Select{
		In: algebra.Select{
			In:   algebra.Join{L: e1, R: e2, Pred: join},
			Pred: predOn("B", 1, value.CmpGe),
		},
		Pred: predOn("C", 2, value.CmpLe),
	}
	out, changed := Simplify(plan)
	if !changed {
		t.Fatalf("Simplify reported no change on a pushable plan")
	}
	j, ok := out.(algebra.Join)
	if !ok {
		t.Fatalf("top of simplified plan is %T, want Join", out)
	}
	if _, ok := j.L.(algebra.Select); !ok {
		t.Errorf("left input is %T, want Select pushed onto the left side", j.L)
	}
	if _, ok := j.R.(algebra.Select); !ok {
		t.Errorf("right input is %T, want Select pushed onto the right side", j.R)
	}
	if !value.TupleSeqEqual(evalOp(plan), evalOp(out)) {
		t.Errorf("simplified plan changed results")
	}
}

// TestSimplifyLeftDeep: right-deep product/join chains become left-deep.
func TestSimplifyLeftDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e1 := randSeq(rng, []string{"A1"}, 4, 3)
	e2 := randSeq(rng, []string{"A2"}, 4, 3)
	e3 := randSeq(rng, []string{"A3"}, 4, 3)
	plan := algebra.Cross{L: e1, R: algebra.Cross{L: e2, R: e3}}
	out, changed := Simplify(plan)
	if !changed {
		t.Fatalf("Simplify reported no change on a right-deep cross")
	}
	top, ok := out.(algebra.Cross)
	if !ok {
		t.Fatalf("top is %T, want Cross", out)
	}
	if _, ok := top.L.(algebra.Cross); !ok {
		t.Errorf("left input is %T, want the nested Cross rotated left", top.L)
	}
	if !value.TupleSeqEqual(evalOp(plan), evalOp(out)) {
		t.Errorf("rotation changed results")
	}
}

// TestSimplifyStuckConjunct: a conjunct referencing both sides stays above
// the join; pushable siblings still sink.
func TestSimplifyStuckConjunct(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e1 := randSeq(rng, []string{"A1", "C"}, 6, 3)
	e2 := randSeq(rng, []string{"A2", "B"}, 6, 3)
	both := algebra.CmpExpr{L: algebra.Var{Name: "C"}, R: algebra.Var{Name: "B"}, Op: value.CmpLe}
	plan := algebra.Select{
		In:   algebra.Cross{L: e1, R: e2},
		Pred: algebra.AndExpr{L: predOn("C", 1, value.CmpGe), R: both},
	}
	out, changed := Simplify(plan)
	if !changed {
		t.Fatalf("Simplify reported no change")
	}
	sel, ok := out.(algebra.Select)
	if !ok {
		t.Fatalf("top is %T, want the stuck Select", out)
	}
	if _, ok := sel.In.(algebra.Cross); !ok {
		t.Fatalf("below stuck Select is %T, want Cross", sel.In)
	}
	if !value.TupleSeqEqual(evalOp(plan), evalOp(out)) {
		t.Errorf("pushdown changed results")
	}
}

// TestSimplifyIdempotent: Simplify(Simplify(p)) = Simplify(p).
func TestSimplifyIdempotent(t *testing.T) {
	check(t, "Simplify-idempotent", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		plan := randComposite(rng)
		once, _ := Simplify(plan)
		twice, changed := Simplify(once)
		return !changed && algebra.Explain(once) == algebra.Explain(twice)
	})
}

// TestSimplifyUnknownAttrsNoPush: with unknown attribute sets on one side,
// nothing is pushed across it.
func TestSimplifyUnknownAttrsNoPush(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	e1 := randSeq(rng, []string{"A1"}, 4, 3)
	e2 := opaqueOp{inner: randSeq(rng, []string{"A2"}, 4, 3)}
	plan := algebra.Select{
		In:   algebra.Cross{L: e1, R: e2},
		Pred: predOn("A1", 1, value.CmpGe),
	}
	out, _ := Simplify(plan)
	if _, ok := out.(algebra.Select); !ok {
		t.Errorf("top is %T, want Select kept above the Cross (unknown schema)", out)
	}
	if !value.TupleSeqEqual(evalOp(plan), evalOp(out)) {
		t.Errorf("simplification changed results")
	}
}

// opaqueOp hides its schema (Attrs unknown) to exercise the conservative
// path of the pass.
type opaqueOp struct{ inner algebra.Op }

func (o opaqueOp) Eval(ctx *algebra.Ctx, env value.Tuple) value.TupleSeq {
	return o.inner.Eval(ctx, env)
}
func (o opaqueOp) String() string                                     { return "opaque" }
func (o opaqueOp) Children() []algebra.Op                             { return nil }
func (o opaqueOp) MapChildren(func(algebra.Op) algebra.Op) algebra.Op { return o }
func (o opaqueOp) Exprs() []algebra.Expr                              { return nil }
func (o opaqueOp) Attrs() ([]string, bool)                            { return nil, false }
