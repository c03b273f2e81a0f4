package core

import (
	"nalquery/internal/algebra"
)

// ToUnordered converts a plan to the unordered operator family (Sec. 1: when
// the query is wrapped in XQuery's unordered() function, the result's order
// is irrelevant and the object-oriented unnesting setting of [9, 10]
// applies). Order-preserving joins and groupings whose predicates decompose
// into equality keys are replaced by their unordered counterparts, which
// emit output in key order — the natural order of a partitioned hash
// implementation. The reported flag is true when at least one operator was
// replaced.
//
// The conversion is applied only below the result-construction operator: Ξ
// consumes whatever order the unordered plan produces, which unordered()
// explicitly permits.
func ToUnordered(op algebra.Op) (algebra.Op, bool) { return rewriteBottomUp(op, swapUnordered) }

// swapUnordered replaces one order-preserving operator with its unordered
// counterpart when the operands' schemas admit key extraction.
func swapUnordered(op algebra.Op) (algebra.Op, bool) {
	switch w := op.(type) {
	case algebra.Join:
		lKeys, rKeys, residual, ok := algebra.SplitEquiJoin(w.Pred, w.L, w.R)
		if !ok {
			return op, false
		}
		return algebra.UnorderedJoin{L: w.L, R: w.R, LAttrs: lKeys, RAttrs: rKeys,
			Residual: residual}, true
	case algebra.SemiJoin:
		lKeys, rKeys, residual, ok := algebra.SplitEquiJoin(w.Pred, w.L, w.R)
		if !ok {
			return op, false
		}
		return algebra.UnorderedSemiJoin{L: w.L, R: w.R, LAttrs: lKeys, RAttrs: rKeys,
			Residual: residual}, true
	case algebra.AntiJoin:
		lKeys, rKeys, residual, ok := algebra.SplitEquiJoin(w.Pred, w.L, w.R)
		if !ok {
			return op, false
		}
		return algebra.UnorderedAntiJoin{L: w.L, R: w.R, LAttrs: lKeys, RAttrs: rKeys,
			Residual: residual}, true
	case algebra.OuterJoin:
		lKeys, rKeys, residual, ok := algebra.SplitEquiJoin(w.Pred, w.L, w.R)
		if !ok || residual != nil {
			// The unordered outer join carries no residual predicate; the
			// defaulting semantics of ⟕ with a residual is left to the
			// ordered operator.
			return op, false
		}
		return algebra.UnorderedOuterJoin{L: w.L, R: w.R, LAttrs: lKeys, RAttrs: rKeys,
			G: w.G, Default: w.Default}, true
	case algebra.GroupUnary:
		return algebra.UnorderedGroupUnary{In: w.In, G: w.G, By: w.By,
			Theta: w.Theta, F: w.F}, true
	case algebra.GroupBinary:
		return algebra.UnorderedGroupBinary{L: w.L, R: w.R, G: w.G,
			LAttrs: w.LAttrs, RAttrs: w.RAttrs, Theta: w.Theta, F: w.F}, true
	}
	return op, false
}
