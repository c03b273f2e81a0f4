package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nalquery/internal/algebra"
	"nalquery/internal/value"
)

// Property-based tests: for every equivalence of Fig. 4 (plus Eqvs. 8/9),
// both sides are constructed literally from the paper's formulas over
// randomly generated ordered inputs and must evaluate to identical ordered
// results whenever the side conditions hold. This machine-checks the
// Appendix A proofs.

// constOp is a leaf operator over a constant tuple sequence.
type constOp struct {
	ts    value.TupleSeq
	attrs []string
}

func (c constOp) Eval(*algebra.Ctx, value.Tuple) value.TupleSeq      { return c.ts }
func (c constOp) String() string                                     { return "const" }
func (c constOp) Children() []algebra.Op                             { return nil }
func (c constOp) MapChildren(func(algebra.Op) algebra.Op) algebra.Op { return c }
func (c constOp) Exprs() []algebra.Expr                              { return nil }
func (c constOp) Attrs() ([]string, bool)                            { return c.attrs, true }

func randSeq(rng *rand.Rand, attrs []string, maxLen, keyRange int) constOp {
	n := rng.Intn(maxLen + 1)
	ts := make(value.TupleSeq, n)
	for i := range ts {
		t := value.Tuple{}
		for _, a := range attrs {
			t[a] = value.Int(int64(rng.Intn(keyRange)))
		}
		ts[i] = t
	}
	return constOp{ts: ts, attrs: attrs}
}

// distinctAs builds ΠD new:old over tuples: the distinct values of attribute
// old, in first-occurrence order, as single-attribute tuples named new.
func distinctAs(ts value.TupleSeq, newName, old string) constOp {
	seen := map[value.HashKey]bool{}
	var out value.TupleSeq
	for _, t := range ts {
		if k := value.KeyOf(t[old]); !seen[k] {
			seen[k] = true
			out = append(out, value.Tuple{newName: t[old]})
		}
	}
	return constOp{ts: out, attrs: []string{newName}}
}

func evalOp(op algebra.Op) value.TupleSeq {
	return op.Eval(algebra.NewCtx(nil), nil)
}

var thetas = []value.CmpOp{value.CmpEq, value.CmpNe, value.CmpLt, value.CmpLe, value.CmpGt, value.CmpGe}

func randTheta(rng *rand.Rand) value.CmpOp { return thetas[rng.Intn(len(thetas))] }

func randF(rng *rand.Rand) algebra.SeqFunc {
	switch rng.Intn(3) {
	case 0:
		return algebra.SFCount{}
	case 1:
		return algebra.SFProject{Attrs: []string{"A2", "B"}} // all of e2's attributes
	default:
		return algebra.SFAgg{Fn: "sum", Attr: "B"}
	}
}

func corrPred(theta value.CmpOp) algebra.Expr {
	return algebra.CmpExpr{L: algebra.Var{Name: "A1"}, R: algebra.Var{Name: "A2"}, Op: theta}
}

func check(t *testing.T, name string, prop func(seed int64) bool) {
	t.Helper()
	cfg := &quick.Config{MaxCount: 300}
	if testing.Short() {
		cfg.MaxCount = 50
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("%s violated: %v", name, err)
	}
}

// TestEqv1Property: χ g:f(σ A1θA2 (e2)) (e1) = e1 Γ g;A1θA2;f e2.
func TestEqv1Property(t *testing.T) {
	check(t, "Eqv.1", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randSeq(rng, []string{"A1"}, 6, 4)
		e2 := randSeq(rng, []string{"A2", "B"}, 6, 4)
		theta := randTheta(rng)
		f := randF(rng)
		lhs := algebra.Map{In: e1, Attr: "g",
			E: algebra.NestedApply{F: f, Plan: algebra.Select{In: e2, Pred: corrPred(theta)}}}
		rhs := algebra.GroupBinary{L: e1, R: e2, G: "g",
			LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: theta, F: f}
		return value.TupleSeqEqual(evalOp(lhs), evalOp(rhs))
	})
}

// TestEqv2Property: χ g:f(σ A1=A2 (e2)) (e1) =
// Π̄ A2 (e1 ⟕ g:f() A1=A2 (Γ g;=A2;f (e2))).
func TestEqv2Property(t *testing.T) {
	check(t, "Eqv.2", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randSeq(rng, []string{"A1"}, 6, 4)
		e2 := randSeq(rng, []string{"A2", "B"}, 6, 4)
		f := randF(rng)
		lhs := algebra.Map{In: e1, Attr: "g",
			E: algebra.NestedApply{F: f, Plan: algebra.Select{In: e2, Pred: corrPred(value.CmpEq)}}}
		grouped := algebra.GroupUnary{In: e2, G: "g", By: []string{"A2"}, Theta: value.CmpEq, F: f}
		rhs := algebra.ProjectDrop{
			In:    algebra.OuterJoin{L: e1, R: grouped, Pred: corrPred(value.CmpEq), G: "g", Default: f},
			Names: []string{"A2"},
		}
		return value.TupleSeqEqual(evalOp(lhs), evalOp(rhs))
	})
}

// TestEqv3Property: with e1 = ΠD A1:A2(ΠA2(e2)),
// χ g:f(σ A1θA2 (e2)) (e1) = ΠA1:A2(Γ g;θA2;f (e2)).
func TestEqv3Property(t *testing.T) {
	check(t, "Eqv.3", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e2 := randSeq(rng, []string{"A2", "B"}, 6, 4)
		e1 := distinctAs(e2.ts, "A1", "A2")
		theta := randTheta(rng)
		f := randF(rng)
		lhs := algebra.Map{In: e1, Attr: "g",
			E: algebra.NestedApply{F: f, Plan: algebra.Select{In: e2, Pred: corrPred(theta)}}}
		rhs := algebra.ProjectRename{
			In:    algebra.GroupUnary{In: e2, G: "g", By: []string{"A2"}, Theta: theta, F: f},
			Pairs: []algebra.Rename{{New: "A1", Old: "A2"}},
		}
		return value.TupleSeqEqual(evalOp(lhs), evalOp(rhs))
	})
}

// nestE2 builds e2 with a sequence-valued attribute a2 (tuples [a2′: v]) and
// a payload attribute B, the input shape of Eqvs. 4 and 5.
func nestE2(rng *rand.Rand, maxLen, keyRange int) constOp {
	n := rng.Intn(maxLen + 1)
	ts := make(value.TupleSeq, n)
	for i := range ts {
		k := rng.Intn(3)
		seq := make(value.TupleSeq, k)
		for j := range seq {
			seq[j] = value.Tuple{"a2'": value.Int(int64(rng.Intn(keyRange)))}
		}
		ts[i] = value.Tuple{"a2": seq, "B": value.Int(int64(rng.Intn(10)))}
	}
	return constOp{ts: ts, attrs: []string{"B", "a2"}}
}

// fForMember picks f independent of a2/a2′ (the Eqv. 4/5 requirement).
func fForMember(rng *rand.Rand) algebra.SeqFunc {
	if rng.Intn(2) == 0 {
		return algebra.SFCount{}
	}
	return algebra.SFAgg{Fn: "sum", Attr: "B"}
}

// TestEqv4Property: χ g:f(σ A1∈a2 (e2)) (e1) =
// Π̄ A2 (e1 ⟕ g:f() A1=A2 Γ g;=A2;f (µD a2 (e2))).
func TestEqv4Property(t *testing.T) {
	check(t, "Eqv.4", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randSeq(rng, []string{"A1"}, 6, 4)
		e2 := nestE2(rng, 6, 4)
		f := fForMember(rng)
		lhs := algebra.Map{In: e1, Attr: "g",
			E: algebra.NestedApply{F: f, Plan: algebra.Select{In: e2,
				Pred: algebra.InExpr{Item: algebra.Var{Name: "A1"}, Seq: algebra.Var{Name: "a2"}}}}}
		grouped := algebra.GroupUnary{In: algebra.UnnestDistinct{In: e2, Attr: "a2"},
			G: "g", By: []string{"a2'"}, Theta: value.CmpEq, F: f}
		rhs := algebra.ProjectDrop{
			In: algebra.OuterJoin{L: e1, R: grouped,
				Pred:    algebra.CmpExpr{L: algebra.Var{Name: "A1"}, R: algebra.Var{Name: "a2'"}, Op: value.CmpEq},
				G:       "g",
				Default: f},
			Names: []string{"a2'"},
		}
		return value.TupleSeqEqual(evalOp(lhs), evalOp(rhs))
	})
}

// TestEqv5Property: with e1 = ΠD A1:A2(ΠA2(µ a2 (e2))),
// χ g:f(σ A1∈a2 (e2)) (e1) = ΠA1:A2(Γ g;=A2;f (µD a2 (e2))).
func TestEqv5Property(t *testing.T) {
	check(t, "Eqv.5", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e2 := nestE2(rng, 6, 4)
		// Drop tuples with empty a2 (µ would ⊥-pad them; the condition's µ
		// in the paper ranges over the actually occurring values).
		var nonEmpty, members value.TupleSeq
		for _, tp := range e2.ts {
			if g := tp["a2"].(value.TupleSeq); len(g) > 0 {
				nonEmpty = append(nonEmpty, tp)
				members = append(members, g...)
			}
		}
		e2 = constOp{ts: nonEmpty, attrs: e2.attrs}
		e1 := distinctAs(members, "A1", "a2'")
		f := fForMember(rng)
		lhs := algebra.Map{In: e1, Attr: "g",
			E: algebra.NestedApply{F: f, Plan: algebra.Select{In: e2,
				Pred: algebra.InExpr{Item: algebra.Var{Name: "A1"}, Seq: algebra.Var{Name: "a2"}}}}}
		rhs := algebra.ProjectRename{
			In: algebra.GroupUnary{In: algebra.UnnestDistinct{In: e2, Attr: "a2"},
				G: "g", By: []string{"a2'"}, Theta: value.CmpEq, F: f},
			Pairs: []algebra.Rename{{New: "A1", Old: "a2'"}},
		}
		return value.TupleSeqEqual(evalOp(lhs), evalOp(rhs))
	})
}

// TestEqv6Property: σ ∃x∈(Πx′(σ A1=A2 (e2))) p (e1) = e1 ⋉ A1=A2∧p′ e2.
func TestEqv6Property(t *testing.T) {
	check(t, "Eqv.6", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randSeq(rng, []string{"A1"}, 6, 4)
		e2 := randSeq(rng, []string{"A2", "B"}, 6, 4)
		c := value.Int(int64(rng.Intn(4)))
		// p: x < c (over the quantifier variable).
		p := algebra.CmpExpr{L: algebra.Var{Name: "x"}, R: algebra.ConstVal{V: c}, Op: value.CmpLt}
		rangeOp := algebra.Project{
			In:    algebra.Select{In: e2, Pred: corrPred(value.CmpEq)},
			Names: []string{"A2"},
		}
		lhs := algebra.Select{In: e1,
			Pred: algebra.ExistsQ{Var: "x", RangeAttr: "A2", Range: rangeOp, Pred: p}}
		pPrime := algebra.CmpExpr{L: algebra.Var{Name: "A2"}, R: algebra.ConstVal{V: c}, Op: value.CmpLt}
		rhs := algebra.SemiJoin{L: e1, R: e2,
			Pred: algebra.AndExpr{L: corrPred(value.CmpEq), R: pPrime}}
		return value.TupleSeqEqual(evalOp(lhs), evalOp(rhs))
	})
}

// TestEqv7Property: σ ∀x∈(Πx′(σ A1=A2 (e2))) p (e1) = e1 ▷ A1=A2∧¬p′ e2.
func TestEqv7Property(t *testing.T) {
	check(t, "Eqv.7", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randSeq(rng, []string{"A1"}, 6, 4)
		e2 := randSeq(rng, []string{"A2", "B"}, 6, 4)
		c := value.Int(int64(rng.Intn(4)))
		p := algebra.CmpExpr{L: algebra.Var{Name: "x"}, R: algebra.ConstVal{V: c}, Op: value.CmpLt}
		rangeOp := algebra.Project{
			In:    algebra.Select{In: e2, Pred: corrPred(value.CmpEq)},
			Names: []string{"A2"},
		}
		lhs := algebra.Select{In: e1,
			Pred: algebra.ForallQ{Var: "x", RangeAttr: "A2", Range: rangeOp, Pred: p}}
		notPPrime := algebra.CmpExpr{L: algebra.Var{Name: "A2"}, R: algebra.ConstVal{V: c}, Op: value.CmpGe}
		rhs := algebra.AntiJoin{L: e1, R: e2,
			Pred: algebra.AndExpr{L: corrPred(value.CmpEq), R: notPPrime}}
		return value.TupleSeqEqual(evalOp(lhs), evalOp(rhs))
	})
}

// TestEqv8Property: ΠD(e1) ⋉ A1=A2 (σp(e2)) = σ c>0 (ΠA1:A2(Γ c;=A2;count∘σp (e2)))
// with ΠD(e1) = ΠD A1:A2(ΠA2(e2)).
func TestEqv8Property(t *testing.T) {
	check(t, "Eqv.8", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e2 := randSeq(rng, []string{"A2", "B"}, 8, 4)
		e1 := distinctAs(e2.ts, "A1", "A2")
		c := value.Int(int64(rng.Intn(10)))
		p := algebra.CmpExpr{L: algebra.Var{Name: "B"}, R: algebra.ConstVal{V: c}, Op: value.CmpLt}
		lhs := algebra.SemiJoin{L: e1, R: algebra.Select{In: e2, Pred: p}, Pred: corrPred(value.CmpEq)}
		rhs := algebra.Select{
			In: algebra.ProjectRename{
				In: algebra.GroupUnary{In: e2, G: "c", By: []string{"A2"}, Theta: value.CmpEq,
					F: algebra.SFFiltered{Pred: p, Inner: algebra.SFCount{}}},
				Pairs: []algebra.Rename{{New: "A1", Old: "A2"}},
			},
			Pred: algebra.CmpExpr{L: algebra.Var{Name: "c"}, R: algebra.ConstVal{V: value.Int(0)}, Op: value.CmpGt},
		}
		lhsOut := evalOp(lhs)
		rhsOut := evalOp(rhs)
		// The RHS carries the extra count attribute c; compare on A1.
		return value.TupleSeqEqual(project(lhsOut, "A1"), project(rhsOut, "A1"))
	})
}

// TestEqv9Property: ΠD(e1) ▷ A1=A2 (σp(e2)) = σ c=0 (ΠA1:A2(Γ c;=A2;count∘σp (e2))).
func TestEqv9Property(t *testing.T) {
	check(t, "Eqv.9", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e2 := randSeq(rng, []string{"A2", "B"}, 8, 4)
		e1 := distinctAs(e2.ts, "A1", "A2")
		c := value.Int(int64(rng.Intn(10)))
		p := algebra.CmpExpr{L: algebra.Var{Name: "B"}, R: algebra.ConstVal{V: c}, Op: value.CmpLt}
		lhs := algebra.AntiJoin{L: e1, R: algebra.Select{In: e2, Pred: p}, Pred: corrPred(value.CmpEq)}
		rhs := algebra.Select{
			In: algebra.ProjectRename{
				In: algebra.GroupUnary{In: e2, G: "c", By: []string{"A2"}, Theta: value.CmpEq,
					F: algebra.SFFiltered{Pred: p, Inner: algebra.SFCount{}}},
				Pairs: []algebra.Rename{{New: "A1", Old: "A2"}},
			},
			Pred: algebra.CmpExpr{L: algebra.Var{Name: "c"}, R: algebra.ConstVal{V: value.Int(0)}, Op: value.CmpEq},
		}
		return value.TupleSeqEqual(project(evalOp(lhs), "A1"), project(evalOp(rhs), "A1"))
	})
}

func project(ts value.TupleSeq, attrs ...string) value.TupleSeq {
	out := make(value.TupleSeq, len(ts))
	for i, t := range ts {
		out[i] = t.Project(attrs)
	}
	return out
}

// TestHashJoinMatchesNestedLoop: the order-preserving hash paths of ⋉, ▷
// and ⟕ agree with a nested-loop evaluation of their Sec. 2 definitions,
// written out here: every left tuple in order, its partners in right order.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	check(t, "hash=nested-loop", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randSeq(rng, []string{"A1", "C"}, 8, 3)
		e2 := randSeq(rng, []string{"A2", "B"}, 8, 3)
		// Equality pair plus residual: hash path with residual filter.
		pred := algebra.AndExpr{
			L: corrPred(value.CmpEq),
			R: algebra.CmpExpr{L: algebra.Var{Name: "C"}, R: algebra.Var{Name: "B"}, Op: value.CmpLe},
		}
		ctx := algebra.NewCtx(nil)
		var semi, anti, outer value.TupleSeq
		for _, lt := range e1.ts {
			matched := false
			for _, rt := range e2.ts {
				if value.EffectiveBool(pred.Eval(ctx, lt.Concat(rt))) {
					matched = true
					outer = append(outer, lt.Concat(rt))
				}
			}
			if matched {
				semi = append(semi, lt)
			} else {
				anti = append(anti, lt)
				// ⊥ on A2, and g = B takes count(ε).
				outer = append(outer, lt.Concat(value.Tuple{"A2": value.Null{}, "B": value.Int(0)}))
			}
		}
		return value.TupleSeqEqual(semi, evalOp(algebra.SemiJoin{L: e1, R: e2, Pred: pred})) &&
			value.TupleSeqEqual(anti, evalOp(algebra.AntiJoin{L: e1, R: e2, Pred: pred})) &&
			value.TupleSeqEqual(outer, evalOp(algebra.OuterJoin{L: e1, R: e2, Pred: pred, G: "B", Default: algebra.SFCount{}}))
	})
}
