package core

import (
	"math/rand"
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/value"
)

// ToUnordered is the identity: the engine has no unordered operator family,
// and an unordered() query runs its wrapped query's own plans.

// TestToUnorderedBagPreserving: every composite ordered plan comes back
// unchanged and unflagged, so its result — sequence and bag — is the same.
func TestToUnorderedBagPreserving(t *testing.T) {
	check(t, "ToUnordered-identity", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randSeq(rng, []string{"A1", "C"}, 8, 3)
		e2 := randSeq(rng, []string{"A2", "B"}, 8, 3)
		eq := algebra.CmpExpr{L: algebra.Var{Name: "A1"}, R: algebra.Var{Name: "A2"}, Op: value.CmpEq}
		plans := []algebra.Op{
			algebra.SemiJoin{L: e1, R: e2, Pred: eq},
			algebra.AntiJoin{L: e1, R: e2, Pred: eq},
			algebra.OuterJoin{L: e1, R: e2, Pred: eq, G: "B", Default: algebra.SFCount{}},
			algebra.GroupBinary{L: e1, R: e2, G: "g",
				LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpEq, F: algebra.SFCount{}},
			algebra.GroupUnary{In: e1, G: "g", By: []string{"A1"}, Theta: value.CmpEq, F: algebra.SFCount{}},
		}
		for _, plan := range plans {
			u, changed := ToUnordered(plan)
			if changed || algebra.Explain(u) != algebra.Explain(plan) ||
				!value.TupleSeqEqual(evalOp(plan), evalOp(u)) {
				return false
			}
		}
		return true
	})
}

// TestToUnorderedNoEquiKeysUntouched: predicates without extractable
// equality keys keep the ordered operator.
func TestToUnorderedNoEquiKeysUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e1 := randSeq(rng, []string{"A1"}, 6, 3)
	e2 := randSeq(rng, []string{"A2"}, 6, 3)
	lt := algebra.CmpExpr{L: algebra.Var{Name: "A1"}, R: algebra.Var{Name: "A2"}, Op: value.CmpLt}
	plan := algebra.SemiJoin{L: e1, R: e2, Pred: lt}
	u, changed := ToUnordered(plan)
	if changed {
		t.Errorf("θ-join without equality keys was converted: %T", u)
	}
	if _, ok := u.(algebra.SemiJoin); !ok {
		t.Errorf("plan type changed to %T", u)
	}
}

// TestToUnorderedValidates: what ToUnordered returns for a valid plan still
// passes attribute-safety validation.
func TestToUnorderedValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e1 := randSeq(rng, []string{"A1"}, 6, 3)
	e2 := randSeq(rng, []string{"A2", "B"}, 6, 3)
	eq := algebra.CmpExpr{L: algebra.Var{Name: "A1"}, R: algebra.Var{Name: "A2"}, Op: value.CmpEq}
	plan := algebra.XiSimple{
		In:   algebra.OuterJoin{L: e1, R: e2, Pred: eq, G: "B", Default: algebra.SFCount{}},
		Cmds: []algebra.Command{algebra.LitCmd("<r>"), {E: algebra.Var{Name: "B"}}, algebra.LitCmd("</r>")},
	}
	u, changed := ToUnordered(plan)
	if changed {
		t.Fatalf("ToUnordered reported a change")
	}
	if !Validate(u) {
		t.Errorf("returned plan fails validation:\n%s", algebra.Explain(u))
	}
}
