package core

import (
	"math/rand"
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/value"
)

// Property-based tests for the Sec. 2 "familiar equivalences" that hold for
// operators a compiled plan contains: both sides of every rule are
// constructed literally and compared over random ordered inputs. The
// normalizer's where reorder (plain clauses ahead of quantified ones) rests
// on the first; the pushes into a left input say that a plain σ gives the
// same result above or below the ⋉, ▷ or ⟕ an unnesting rewrite builds.

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

// TestSec2SelectPushSemiAnti: σp1(e1 ⋉p2 e2) = σp1(e1) ⋉p2 e2, and the same
// for the anti-join ▷.
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
