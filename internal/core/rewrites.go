package core

import (
	"nalquery/internal/algebra"
	"nalquery/internal/value"
)

// The functions in this file construct the right-hand sides of the
// equivalences. Each returns the rewritten operator and true, or (nil,
// false) when the pattern or its conditions do not hold.

// applyEqv1 unnests χ g:f(σ A1θA2 (e2)) (e1) into the binary grouping
// e1 Γ g;A1θA2;f e2 (Eqv. 1).
func (rw *Rewriter) applyEqv1(m algebra.Map) (algebra.Op, bool) {
	site, ok := matchMapNested(m)
	if !ok {
		return nil, false
	}
	corr, residual, ok := splitCorrelation(site.pred, site.e1, site.e2)
	if !ok || corr.member {
		return nil, false
	}
	if !disjointFree(site.e2, residual, site.e1, corr.a1) {
		return nil, false
	}
	e2 := site.e2
	if residual != nil {
		e2 = algebra.Select{In: e2, Pred: residual}
	}
	return algebra.GroupBinary{
		L: site.e1, R: e2, G: site.g,
		LAttrs: []string{corr.a1}, RAttrs: []string{corr.a2},
		Theta: corr.theta, F: site.f,
	}, true
}

// applyEqv2 unnests χ g:f(σ A1=A2 (e2)) (e1) into
// Π̄ A2 (e1 ⟕ g:f() A1=A2 (Γ g;=A2;f (e2))) (Eqv. 2).
func (rw *Rewriter) applyEqv2(m algebra.Map) (algebra.Op, bool) {
	site, ok := matchMapNested(m)
	if !ok {
		return nil, false
	}
	corr, residual, ok := splitCorrelation(site.pred, site.e1, site.e2)
	if !ok || corr.member || corr.theta != value.CmpEq {
		return nil, false
	}
	if !disjointFree(site.e2, residual, site.e1, corr.a1) {
		return nil, false
	}
	e2 := site.e2
	if residual != nil {
		e2 = algebra.Select{In: e2, Pred: residual}
	}
	grouped := algebra.GroupUnary{In: e2, G: site.g, By: []string{corr.a2},
		Theta: value.CmpEq, F: site.f}
	oj := algebra.OuterJoin{
		L: site.e1, R: grouped,
		Pred:    algebra.CmpExpr{L: algebra.Var{Name: corr.a1}, R: algebra.Var{Name: corr.a2}, Op: value.CmpEq},
		G:       site.g,
		Default: site.f,
	}
	return algebra.ProjectDrop{In: oj, Names: []string{corr.a2}}, true
}

// applyEqv3 unnests χ g:f(σ A1θA2 (e2)) (e1) into ΠA1:A2(Γ g;θA2;f (e2))
// when e1 = ΠD A1:A2(ΠA2(e2)) — verified through the provenance of a1/a2 and
// the DTD catalog (Eqv. 3).
func (rw *Rewriter) applyEqv3(m algebra.Map) (algebra.Op, bool) {
	site, ok := matchMapNested(m)
	if !ok {
		return nil, false
	}
	corr, residual, ok := splitCorrelation(site.pred, site.e1, site.e2)
	if !ok || corr.member {
		return nil, false
	}
	if !disjointFree(site.e2, residual, site.e1, corr.a1) {
		return nil, false
	}
	if !rw.distinct(corr.a1) || !rw.sameValueSet(corr.a1, corr.a2) {
		return nil, false
	}
	// Residual or embedded selections could remove a2 values entirely,
	// breaking e1 = ΠD(ΠA2(e2)); reject them.
	if residual != nil || hasSelection(site.e2) {
		return nil, false
	}
	grouped := algebra.GroupUnary{In: dropAbsentKeys(site.e2, corr.a2), G: site.g,
		By: []string{corr.a2}, Theta: corr.theta, F: site.f}
	return rw.renameGroupKey(grouped, corr.a1, corr.a2), true
}

// dropAbsentKeys wraps a grouping input in a selection that removes tuples
// whose key attribute is absent (the path matched nothing). The outer side
// e1 of Eqvs. 3, 8 and 9 draws its keys from the path's node set, which
// never contains the absent value, and A1 = A2 is false for an empty A2 —
// so such tuples can never match any outer key, but without the filter they
// would surface as a phantom group of their own whenever the keying element
// is optional (the //usertuple/rating? trap).
func dropAbsentKeys(e algebra.Op, key string) algebra.Op {
	return algebra.Select{In: e,
		Pred: algebra.Call{Fn: "exists", Args: []algebra.Expr{algebra.Var{Name: key}}}}
}

// applyEqv4 unnests χ g:f(σ A1∈a2 (e2)) (e1) into
// Π̄ A2 (e1 ⟕ g:f() A1=A2 Γ g;=A2;f (µD a2 (e2))) (Eqv. 4).
func (rw *Rewriter) applyEqv4(m algebra.Map) (algebra.Op, bool) {
	site, ok := matchMapNested(m)
	if !ok {
		return nil, false
	}
	corr, residual, ok := splitCorrelation(site.pred, site.e1, site.e2)
	if !ok || !corr.member {
		return nil, false
	}
	item := rw.Prov[corr.a2].ItemAttr
	if item == "" {
		return nil, false
	}
	if !fIndependentOf(site.f, corr.a2, item) {
		return nil, false
	}
	if !disjointFree(site.e2, residual, site.e1, corr.a1) {
		return nil, false
	}
	e2 := site.e2
	if residual != nil {
		e2 = algebra.Select{In: e2, Pred: residual}
	}
	unnested := algebra.UnnestDistinct{In: e2, Attr: corr.a2}
	grouped := algebra.GroupUnary{In: unnested, G: site.g, By: []string{item},
		Theta: value.CmpEq, F: site.f}
	oj := algebra.OuterJoin{
		L: site.e1, R: grouped,
		Pred:    algebra.CmpExpr{L: algebra.Var{Name: corr.a1}, R: algebra.Var{Name: item}, Op: value.CmpEq},
		G:       site.g,
		Default: site.f,
	}
	return algebra.ProjectDrop{In: oj, Names: []string{item}}, true
}

// applyEqv5 unnests χ g:f(σ A1∈a2 (e2)) (e1) into ΠA1:A2(Γ g;=A2;f (µD a2 (e2)))
// when e1 = ΠD A1:A2(ΠA2(µ a2 (e2))) (Eqv. 5) — the condition whose omission
// the paper points out in [31].
func (rw *Rewriter) applyEqv5(m algebra.Map) (algebra.Op, bool) {
	site, ok := matchMapNested(m)
	if !ok {
		return nil, false
	}
	corr, residual, ok := splitCorrelation(site.pred, site.e1, site.e2)
	if !ok || !corr.member {
		return nil, false
	}
	item := rw.Prov[corr.a2].ItemAttr
	if item == "" {
		return nil, false
	}
	if !fIndependentOf(site.f, corr.a2, item) {
		return nil, false
	}
	if !disjointFree(site.e2, residual, site.e1, corr.a1) {
		return nil, false
	}
	if residual != nil || hasSelection(site.e2) {
		return nil, false
	}
	if !rw.distinct(corr.a1) || !rw.sameValueSet(corr.a1, corr.a2) {
		return nil, false
	}
	unnested := algebra.UnnestDistinct{In: site.e2, Attr: corr.a2}
	grouped := algebra.GroupUnary{In: unnested, G: site.g, By: []string{item},
		Theta: value.CmpEq, F: site.f}
	return rw.renameGroupKey(grouped, corr.a1, item), true
}

// renameGroupKey renames the grouping key a2 back to a1 (the ΠA1:A2 of
// Eqvs. 3, 5, 8, 9). When a1's values were atomized (bound via
// distinct-values), the node-valued key is atomized to its string value so
// that the rewritten plan produces byte-identical results.
func (rw *Rewriter) renameGroupKey(in algebra.Op, a1, a2 string) algebra.Op {
	if rw.Prov[a1].Distinct && !rw.Prov[a2].Distinct {
		withA1 := algebra.Map{In: in, Attr: a1,
			E: algebra.Call{Fn: "string", Args: []algebra.Expr{algebra.Var{Name: a2}}}}
		return algebra.ProjectDrop{In: withA1, Names: []string{a2}}
	}
	return algebra.ProjectRename{In: in, Pairs: []algebra.Rename{{New: a1, Old: a2}}}
}

// quantSite is a matched σ ∃x∈(Πx′(σ...(e2))) p (e1) or the ∀ analogue.
type quantSite struct {
	e1        algebra.Op
	e2        algebra.Op
	x, xPrime string
	rangePred algebra.Expr // the selection inside the range (correlation), may be nil
	p         algebra.Expr // the satisfies predicate
	every     bool
}

func matchQuantSelect(s algebra.Select) (quantSite, bool) {
	var site quantSite
	switch q := s.Pred.(type) {
	case algebra.ExistsQ:
		site = quantSite{e1: s.In, x: q.Var, xPrime: q.RangeAttr, p: q.Pred}
		site.e2, site.rangePred = stripRange(q.Range, q.RangeAttr)
	case algebra.ForallQ:
		site = quantSite{e1: s.In, x: q.Var, xPrime: q.RangeAttr, p: q.Pred, every: true}
		site.e2, site.rangePred = stripRange(q.Range, q.RangeAttr)
	default:
		return quantSite{}, false
	}
	if site.e2 == nil {
		return quantSite{}, false
	}
	return site, true
}

// stripRange unwraps the Πx′(σ...(e2)) shape of a quantifier range. The
// correlation selections may sit anywhere in the unary spine below the
// projection (see extractCorrSelects).
func stripRange(rng algebra.Op, xPrime string) (algebra.Op, algebra.Expr) {
	proj, ok := rng.(algebra.Project)
	if !ok || len(proj.Names) != 1 || proj.Names[0] != xPrime {
		return nil, nil
	}
	e2, preds := extractCorrSelects(proj.In, algebra.NameSet(algebra.FreeVarsOf(proj.In), true))
	return e2, algebra.AndOf(preds)
}

// applyEqv6 unnests σ ∃x∈(Πx′(σ A1=A2 (e2))) p (e1) into
// e1 ⋉ A1=A2∧p′ e2 (Eqv. 6).
func (rw *Rewriter) applyEqv6(s algebra.Select) (algebra.Op, bool) {
	site, ok := matchQuantSelect(s)
	if !ok || site.every {
		return nil, false
	}
	pred := rw.quantJoinPred(site, false)
	if pred == nil {
		return nil, false
	}
	if !quantDisjoint(site) {
		return nil, false
	}
	return algebra.SemiJoin{L: site.e1, R: site.e2, Pred: pred}, true
}

// applyEqv7 unnests σ ∀x∈(Πx′(σ A1=A2 (e2))) p (e1) into
// e1 ▷ A1=A2∧¬p′ e2 (Eqv. 7).
func (rw *Rewriter) applyEqv7(s algebra.Select) (algebra.Op, bool) {
	site, ok := matchQuantSelect(s)
	if !ok || !site.every {
		return nil, false
	}
	pred := rw.quantJoinPred(site, true)
	if pred == nil {
		return nil, false
	}
	if !quantDisjoint(site) {
		return nil, false
	}
	return algebra.AntiJoin{L: site.e1, R: site.e2, Pred: pred}, true
}

// quantJoinPred builds the join predicate of Eqvs. 6 and 7: the range's
// correlation predicate conjoined with p′ (or ¬p′), where p′ results from p
// by replacing x by x′.
func (rw *Rewriter) quantJoinPred(site quantSite, negateP bool) algebra.Expr {
	var conj []algebra.Expr
	conj = append(conj, effectiveConjuncts(site.rangePred)...)
	pPrime := substVar(site.p, site.x, site.xPrime)
	// A reference to x inside a nested plan of p stays where it is: only the
	// nested-loop form binds it, so there is no join predicate.
	fv := map[string]bool{}
	if algebra.FreeVars(pPrime, fv); fv[site.x] && site.x != site.xPrime {
		return nil
	}
	if negateP {
		pPrime = negateExpr(pPrime)
	}
	conj = append(conj, effectiveConjuncts(pPrime)...)
	pred := algebra.AndOf(conj)
	if pred == nil {
		// An unconditional semijoin keeps e1 tuples iff e2 is non-empty; an
		// unconditional antijoin with an always-false predicate keeps all of
		// e1. Represent "true" explicitly.
		pred = algebra.ConstVal{V: value.Bool(true)}
	}
	return pred
}

// quantDisjoint checks A(e1) ∩ A(e2) = ∅, which the join's e1 ◦ e2 needs (a
// range block may rebind an outer variable's name), and F(e2) ∩ A(e1) = ∅
// modulo the correlation attributes of the range predicate.
func quantDisjoint(site quantSite) bool {
	e1Attrs := algebra.NameSet(site.e1.Attrs())
	e2Attrs := algebra.NameSet(site.e2.Attrs())
	for a := range e2Attrs {
		if e1Attrs[a] {
			return false
		}
	}
	fv := algebra.NameSet(algebra.FreeVarsOf(site.e2), true)
	if site.rangePred != nil {
		algebra.FreeVars(site.rangePred, fv)
	}
	for v := range fv {
		if !e1Attrs[v] {
			continue
		}
		// e1 attributes may appear only inside comparison conjuncts of the
		// correlation predicate — they become the join predicate.
		if site.rangePred == nil || !varOnlyInCorr(site.rangePred, v, e1Attrs, e2Attrs) {
			return false
		}
	}
	return true
}

func varOnlyInCorr(pred algebra.Expr, v string, e1Attrs, e2Attrs map[string]bool) bool {
	for _, c := range effectiveConjuncts(pred) {
		fv := map[string]bool{}
		algebra.FreeVars(c, fv)
		if !fv[v] {
			continue
		}
		if _, ok := asCorr(c, e1Attrs, e2Attrs); !ok {
			return false
		}
	}
	// The e2 subtree itself must not reference v.
	return true
}

// negateExpr builds ¬e, folding boolean constants and double negation.
func negateExpr(e algebra.Expr) algebra.Expr {
	switch w := e.(type) {
	case algebra.CmpExpr:
		// ¬(A θ B) may NOT be folded to A θ̄ B: general comparisons are
		// existential over sequences, so both A = B and A != B are false
		// when either operand is empty (or can disagree when one side has
		// several items). Only an explicit ¬ is the exact complement.
		return algebra.NotExpr{E: w}
	case algebra.NotExpr:
		return w.E
	case algebra.Call:
		if w.Fn == "true" && len(w.Args) == 0 {
			return algebra.ConstVal{V: value.Bool(false)}
		}
		if w.Fn == "false" && len(w.Args) == 0 {
			return algebra.ConstVal{V: value.Bool(true)}
		}
		return algebra.NotExpr{E: e}
	case algebra.ConstVal:
		if b, ok := w.V.(value.Bool); ok {
			return algebra.ConstVal{V: value.Bool(!bool(b))}
		}
		return algebra.NotExpr{E: e}
	default:
		return algebra.NotExpr{E: e}
	}
}

// substVar replaces free occurrences of Var{from} by Var{to} in e's own
// expressions. Nested plans and sequence functions are not entered: a
// reference inside one stays, for the caller to find with FreeVars.
func substVar(e algebra.Expr, from, to string) algebra.Expr {
	var sub func(algebra.Expr) algebra.Expr
	sub = func(e algebra.Expr) algebra.Expr {
		switch w := e.(type) {
		case algebra.Var:
			if w.Name == from {
				return algebra.Var{Name: to}
			}
			return e
		case algebra.ExistsQ:
			if w.Var == from {
				return e
			}
		case algebra.ForallQ:
			if w.Var == from {
				return e
			}
		}
		return e.MapChildren(sub)
	}
	return sub(e)
}

// applyEqv8 rewrites ΠD(e1) ⋉ A1=A2 (σp(e2)) into
// σ c>0 (ΠA1:A2(Γ c;=A2;count∘σp (e2))) — saving the second scan of the
// shared document (Eqv. 8). The duplicate-freeness of e1 and the value-set
// condition are verified through provenance.
func (rw *Rewriter) applyEqv8(j algebra.SemiJoin) (algebra.Op, bool) {
	return rw.applyCountRewrite(j.L, j.R, j.Pred, false)
}

// applyEqv9 rewrites ΠD(e1) ▷ A1=A2 (σp(e2)) into
// σ c=0 (ΠA1:A2(Γ c;=A2;count∘σp (e2))) (Eqv. 9).
func (rw *Rewriter) applyEqv9(j algebra.AntiJoin) (algebra.Op, bool) {
	return rw.applyCountRewrite(j.L, j.R, j.Pred, true)
}

func (rw *Rewriter) applyCountRewrite(e1, e2 algebra.Op, pred algebra.Expr, anti bool) (algebra.Op, bool) {
	corr, residual, ok := splitCorrelation(pred, e1, e2)
	if !ok || corr.member || corr.theta != value.CmpEq {
		return nil, false
	}
	// ΠD(e1): e1 must be value-level duplicate-free on A1 and cover exactly
	// the A2 value set. Beyond A1, e1 may only carry document handles
	// (anything else would be lost by the rewrite).
	if !rw.distinct(corr.a1) || !rw.sameValueSet(corr.a1, corr.a2) {
		return nil, false
	}
	if hasSelection(e2) {
		return nil, false
	}
	if attrs, known := e1.Attrs(); known {
		for _, a := range attrs {
			if a != corr.a1 && !rw.Prov[a].IsDoc {
				return nil, false
			}
		}
	} else {
		return nil, false
	}
	var f algebra.SeqFunc = algebra.SFCount{}
	if residual != nil {
		f = algebra.SFFiltered{Pred: residual, Inner: algebra.SFCount{}}
	}
	cAttr := corr.a1 + "#count"
	grouped := algebra.GroupUnary{In: dropAbsentKeys(e2, corr.a2), G: cAttr,
		By: []string{corr.a2}, Theta: value.CmpEq, F: f}
	renamed := rw.renameGroupKey(grouped, corr.a1, corr.a2)
	op := value.CmpGt
	if anti {
		op = value.CmpEq
	}
	return algebra.Select{In: renamed,
		Pred: algebra.CmpExpr{L: algebra.Var{Name: cAttr}, R: algebra.ConstVal{V: value.Int(0)}, Op: op}}, true
}

// pushResidual pushes predicate conjuncts that reference only the inner
// operand into a selection on that operand (the Sec. 5.5 rewrite
// e1 ▷ a1=a3 ∧ y3≤1993 e3 ⇒ e1 ▷ a1=a3 σ y3≤1993 (e3)).
func pushResidual(l, r algebra.Op, pred algebra.Expr) (algebra.Expr, algebra.Op, bool) {
	rAttrs := algebra.NameSet(r.Attrs())
	if len(rAttrs) == 0 {
		return pred, r, false
	}
	var kept, pushed []algebra.Expr
	for _, c := range effectiveConjuncts(pred) {
		fv := map[string]bool{}
		algebra.FreeVars(c, fv)
		all := true
		for v := range fv {
			if !rAttrs[v] {
				all = false
				break
			}
		}
		if all && len(fv) > 0 {
			pushed = append(pushed, c)
		} else {
			kept = append(kept, c)
		}
	}
	if len(pushed) == 0 {
		return pred, r, false
	}
	return algebra.AndOf(kept), algebra.Select{In: r, Pred: algebra.AndOf(pushed)}, true
}
