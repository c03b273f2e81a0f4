package core

import (
	"nalquery/internal/algebra"
)

// This file implements the "familiar equivalences" the paper restates for
// the ordered context at the end of Sec. 2 as a plan-simplification pass:
//
//	σp1(σp2(e))        = σp2(σp1(e))                 (commutation)
//	σp(e1 × e2)        = σp(e1) × e2                  if F(p) ∩ A(e2) = ∅
//	σp(e1 × e2)        = e1 × σp(e2)                  if F(p) ∩ A(e1) = ∅
//	σp1(e1 ⋈p2 e2)     = σp1(e1) ⋈p2 e2              if F(p1) ∩ A(e2) = ∅
//	σp1(e1 ⋈p2 e2)     = e1 ⋈p2 σp1(e2)              if F(p1) ∩ A(e1) = ∅
//	σp1(e1 ⋉p2 e2)     = σp1(e1) ⋉p2 e2              if F(p1) ∩ A(e2) = ∅
//	σp1(e1 ⟕g:e p2 e2) = σp1(e1) ⟕g:e p2 e2          if F(p1) ∩ A(e2) = ∅
//	e1 × (e2 × e3)     = (e1 × e2) × e3               (associativity)
//	e1 ⋈p1 (e2 ⋈p2 e3) = (e1 ⋈p1 e2) ⋈p2 e3          (usual restrictions)
//
// The pass applies them left to right: selections sink towards the leaves
// (conjunct by conjunct — sound by the commutation rule) and product/join
// trees are canonicalized to left-deep form, the shape the hash-based join
// family evaluates with the least intermediate state. The anti-join ▷ admits
// the same left push as ⋉ (its output is also a subsequence of e1); the pass
// uses it and the property tests check it alongside the listed rules.
//
// In the ordered context neither × nor ⋈ is commutative, so no rule here
// swaps operands.
//
// Like every plan walker of this package the pass descends through
// Op.MapChildren and names only the operators it rewrites.

// Simplify applies the Sec. 2 equivalences until fixpoint. It returns the
// simplified plan and whether anything changed.
func Simplify(op algebra.Op) (algebra.Op, bool) {
	changedAny := false
	for i := 0; i < maxSimplifyRounds; i++ {
		out, changed := rewriteBottomUp(op, simplifyAt)
		if !changed {
			return out, changedAny
		}
		changedAny = true
		op = out
	}
	return op, changedAny
}

// maxSimplifyRounds bounds the fixpoint iteration. Every round either sinks
// a selection conjunct or rotates one product/join; plans are finite, so the
// bound is a safety net, not a tuning knob.
const maxSimplifyRounds = 64

// rewriteBottomUp rebuilds a plan inputs first, replacing every operator at
// rewrites (ok=true) by its result; it reports whether any was replaced.
func rewriteBottomUp(op algebra.Op, at func(algebra.Op) (algebra.Op, bool)) (algebra.Op, bool) {
	changed := false
	var visit func(algebra.Op) algebra.Op
	visit = func(o algebra.Op) algebra.Op {
		o = o.MapChildren(visit)
		if out, ok := at(o); ok {
			changed = true
			return out
		}
		return o
	}
	return visit(op), changed
}

// simplifyAt applies one equivalence at the root of op.
func simplifyAt(op algebra.Op) (algebra.Op, bool) {
	switch w := op.(type) {
	case algebra.Select:
		return pushSelect(w)
	case algebra.Cross:
		if inner, ok := w.R.(algebra.Cross); ok {
			// e1 × (e2 × e3) = (e1 × e2) × e3.
			return algebra.Cross{L: algebra.Cross{L: w.L, R: inner.L}, R: inner.R}, true
		}
	case algebra.Join:
		return reassocJoin(w)
	}
	return nil, false
}

// pushSelect sinks the conjuncts of a selection into the inputs of a binary
// operator below it, where the side conditions allow.
func pushSelect(s algebra.Select) (algebra.Op, bool) {
	conjuncts := algebra.Conjuncts(s.Pred)
	in := s.In
	switch j := in.(type) {
	case algebra.Cross:
		left, right, stuck := classifyConjuncts(conjuncts, j.L, j.R, true)
		if left == nil && right == nil {
			return nil, false
		}
		var out algebra.Op = algebra.Cross{L: wrapSelect(j.L, left), R: wrapSelect(j.R, right)}
		return wrapSelect(out, stuck), true
	case algebra.Join:
		left, right, stuck := classifyConjuncts(conjuncts, j.L, j.R, true)
		if left == nil && right == nil {
			return nil, false
		}
		var out algebra.Op = algebra.Join{L: wrapSelect(j.L, left), R: wrapSelect(j.R, right), Pred: j.Pred}
		return wrapSelect(out, stuck), true
	case algebra.SemiJoin:
		left, _, stuck := classifyConjuncts(conjuncts, j.L, j.R, false)
		if left == nil {
			return nil, false
		}
		var out algebra.Op = algebra.SemiJoin{L: wrapSelect(j.L, left), R: j.R, Pred: j.Pred}
		return wrapSelect(out, stuck), true
	case algebra.AntiJoin:
		left, _, stuck := classifyConjuncts(conjuncts, j.L, j.R, false)
		if left == nil {
			return nil, false
		}
		var out algebra.Op = algebra.AntiJoin{L: wrapSelect(j.L, left), R: j.R, Pred: j.Pred}
		return wrapSelect(out, stuck), true
	case algebra.OuterJoin:
		left, _, stuck := classifyConjuncts(conjuncts, j.L, j.R, false)
		if left == nil {
			return nil, false
		}
		var out algebra.Op = algebra.OuterJoin{
			L: wrapSelect(j.L, left), R: j.R, Pred: j.Pred, G: j.G, Default: j.Default,
		}
		return wrapSelect(out, stuck), true
	}
	return nil, false
}

// classifyConjuncts partitions predicate conjuncts into those pushable into
// the left input (F(p) ∩ A(right) = ∅), those pushable into the right input
// (F(p) ∩ A(left) = ∅, only when pushRight holds), and the rest. Conjuncts
// referencing neither side (outer-environment predicates) go left — they
// filter earlier there. When an input's attribute set is unknown, nothing is
// pushed across it.
func classifyConjuncts(conjuncts []algebra.Expr, l, r algebra.Op, pushRight bool) (left, right, stuck []algebra.Expr) {
	lAttrs, lok := l.Attrs()
	rAttrs, rok := r.Attrs()
	if !lok || !rok {
		return nil, nil, conjuncts
	}
	lSet := algebra.NameSet(lAttrs, true)
	rSet := algebra.NameSet(rAttrs, true)
	for _, c := range conjuncts {
		fv := map[string]bool{}
		c.FreeVars(fv)
		switch {
		case disjoint(fv, rSet):
			left = append(left, c)
		case pushRight && disjoint(fv, lSet):
			right = append(right, c)
		default:
			stuck = append(stuck, c)
		}
	}
	return left, right, stuck
}

// reassocJoin rotates e1 ⋈p1 (e2 ⋈p2 e3) to (e1 ⋈p1 e2) ⋈p2 e3 under the
// usual restrictions: p1 must not reference A(e3) and p2 must not reference
// A(e1).
func reassocJoin(j algebra.Join) (algebra.Op, bool) {
	inner, ok := j.R.(algebra.Join)
	if !ok {
		return nil, false
	}
	a1, ok1 := j.L.Attrs()
	a3, ok3 := inner.R.Attrs()
	if !ok1 || !ok3 {
		return nil, false
	}
	fv1 := map[string]bool{}
	j.Pred.FreeVars(fv1)
	fv2 := map[string]bool{}
	inner.Pred.FreeVars(fv2)
	if !disjoint(fv1, algebra.NameSet(a3, true)) || !disjoint(fv2, algebra.NameSet(a1, true)) {
		return nil, false
	}
	return algebra.Join{
		L:    algebra.Join{L: j.L, R: inner.L, Pred: j.Pred},
		R:    inner.R,
		Pred: inner.Pred,
	}, true
}

// wrapSelect places the conjuncts back on top of op as a single selection;
// with no conjuncts it returns op unchanged.
func wrapSelect(op algebra.Op, conjuncts []algebra.Expr) algebra.Op {
	if len(conjuncts) == 0 {
		return op
	}
	return algebra.Select{In: op, Pred: algebra.AndOf(conjuncts)}
}

func disjoint(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return false
		}
	}
	return true
}
