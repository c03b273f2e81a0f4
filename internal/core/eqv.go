// Package core implements the paper's primary contribution: the
// order-preserving unnesting equivalences of Fig. 4 (Eqvs. 1–7) and the
// scan-saving Eqvs. 8 and 9, together with their side-condition checks and
// the optimizer that enumerates plan alternatives for a translated query.
//
// All equivalences are applied left-to-right: the left-hand sides are the
// nested forms produced by translation (χ over f(σ...(e2)), σ over ∃/∀
// quantifier predicates); the right-hand sides are unnested operator trees.
package core

import (
	"nalquery/internal/algebra"
	"nalquery/internal/schema"
	"nalquery/internal/translate"
	"nalquery/internal/value"
)

// Rewriter applies the unnesting equivalences. It carries the variable
// provenance recorded during translation and the DTD catalog, which together
// decide the schema-dependent conditions (e1 = ΠD A1:A2(ΠA2(e2)) etc.).
type Rewriter struct {
	Prov map[string]translate.Prov
	Cat  *schema.Catalog
}

// NewRewriter builds a rewriter from a translation result.
func NewRewriter(res *translate.Result, cat *schema.Catalog) *Rewriter {
	return &Rewriter{Prov: res.Prov, Cat: cat}
}

// chainOf returns the provenance (document URI and element chain) of an
// attribute's values.
func (rw *Rewriter) chainOf(attr string) (uri, chain string, ok bool) {
	p, found := rw.Prov[attr]
	if !found || p.URI == "" || p.Chain == "" {
		return "", "", false
	}
	return p.URI, p.Chain, true
}

// sameValueSet checks e1 = ΠD A1:A2(ΠA2(e2)) style conditions: the distinct
// values bound to a1 are exactly the distinct values reachable under a2.
func (rw *Rewriter) sameValueSet(a1, a2 string) bool {
	if rw.Cat == nil {
		return false
	}
	u1, c1, ok1 := rw.chainOf(a1)
	u2, c2, ok2 := rw.chainOf(a2)
	if !ok1 || !ok2 || u1 != u2 {
		return false
	}
	return rw.Cat.SameNodeSet(u1, c1, c2)
}

// distinct reports whether the attribute is value-level duplicate-free
// (bound via distinct-values / ΠD).
func (rw *Rewriter) distinct(attr string) bool { return rw.Prov[attr].Distinct }

// nestedSite is a matched left-hand side of Eqvs. 1–5:
// χ g:f(σ pred (e2)) (e1).
type nestedSite struct {
	e1   algebra.Op
	e2   algebra.Op
	g    string
	f    algebra.SeqFunc
	pred algebra.Expr
}

// matchMapNested matches the Map operator against the χ g:f(σ...(e2))
// pattern. The correlation selection need not sit at the top of the nested
// plan: selections commute with the map/unnest-map operators stacked above
// them (their predicates reference only attributes introduced below), so the
// matcher extracts every correlated selection from the unary operator spine
// and treats the remaining pipeline as e2.
func matchMapNested(m algebra.Map) (nestedSite, bool) {
	na, ok := m.E.(algebra.NestedApply)
	if !ok {
		return nestedSite{}, false
	}
	e1Attrs := algebra.NameSet(m.In.Attrs())
	e2, preds := extractCorrSelects(na.Plan, e1Attrs)
	if len(preds) == 0 {
		return nestedSite{}, false
	}
	return nestedSite{e1: m.In, e2: e2, g: m.Attr, f: na.F, pred: algebra.AndOf(preds)}, true
}

// extractCorrSelects removes from the unary operator spine every selection
// whose predicate references an attribute of the outer expression (a free
// variable of the nested plan), returning the remaining plan and the
// collected predicates. Moving such a selection to the top of the spine is
// order- and multiset-preserving because the operators above it only extend
// tuples (χ, Υ) or filter on unrelated attributes.
func extractCorrSelects(op algebra.Op, outerAttrs map[string]bool) (algebra.Op, []algebra.Expr) {
	switch w := op.(type) {
	case algebra.Select:
		fv := map[string]bool{}
		algebra.FreeVars(w.Pred, fv)
		correlated := false
		for v := range fv {
			if outerAttrs[v] {
				correlated = true
				break
			}
		}
		in, preds := extractCorrSelects(w.In, outerAttrs)
		if correlated {
			return in, append(preds, effectiveConjuncts(w.Pred)...)
		}
		return algebra.Select{In: in, Pred: w.Pred}, preds
	case algebra.Map:
		in, preds := extractCorrSelects(w.In, outerAttrs)
		return algebra.Map{In: in, Attr: w.Attr, E: w.E}, preds
	case algebra.UnnestMap:
		in, preds := extractCorrSelects(w.In, outerAttrs)
		return algebra.UnnestMap{In: in, Attr: w.Attr, E: w.E}, preds
	default:
		// Stop at projections and non-unary operators: moving a selection
		// above them is not generally attribute-safe.
		return op, nil
	}
}

// corrEq is a decomposed correlation predicate A1 θ A2 (or A1 ∈ a2).
type corrEq struct {
	a1     string // attribute of e1 (free in the nested expression)
	a2     string // attribute of e2 (or the sequence-valued attribute for ∈)
	theta  value.CmpOp
	member bool // true for the ∈ form of Eqvs. 4 and 5
}

// splitCorrelation decomposes the selection predicate of a nested site into
// the correlation comparison plus a residual predicate over e2 attributes
// only. a1 must be free in the nested plan (∈ A(e1)), a2 produced by e2.
func splitCorrelation(pred algebra.Expr, e1, e2 algebra.Op) (corrEq, algebra.Expr, bool) {
	e1Attrs := algebra.NameSet(e1.Attrs())
	e2Attrs := algebra.NameSet(e2.Attrs())
	conjuncts := effectiveConjuncts(pred)
	var corr *corrEq
	var rest []algebra.Expr
	for _, c := range conjuncts {
		if corr == nil {
			if ce, ok := asCorr(c, e1Attrs, e2Attrs); ok {
				corr = &ce
				continue
			}
		}
		// Residual conjuncts may only reference e2 attributes.
		fv := map[string]bool{}
		algebra.FreeVars(c, fv)
		onlyE2 := true
		for v := range fv {
			if !e2Attrs[v] {
				onlyE2 = false
				break
			}
		}
		if !onlyE2 {
			return corrEq{}, nil, false
		}
		rest = append(rest, c)
	}
	if corr == nil {
		return corrEq{}, nil, false
	}
	return *corr, algebra.AndOf(rest), true
}

func asCorr(c algebra.Expr, e1Attrs, e2Attrs map[string]bool) (corrEq, bool) {
	switch w := c.(type) {
	case algebra.CmpExpr:
		lv, lok := w.L.(algebra.Var)
		rv, rok := w.R.(algebra.Var)
		if !lok || !rok {
			return corrEq{}, false
		}
		switch {
		case e1Attrs[lv.Name] && e2Attrs[rv.Name]:
			return corrEq{a1: lv.Name, a2: rv.Name, theta: w.Op}, true
		case e2Attrs[lv.Name] && e1Attrs[rv.Name]:
			// swap: A2 θ A1 ⇔ A1 θ⁻¹ A2
			return corrEq{a1: rv.Name, a2: lv.Name, theta: flipCmp(w.Op)}, true
		}
	case algebra.InExpr:
		iv, iok := w.Item.(algebra.Var)
		sv, sok := w.Seq.(algebra.Var)
		if iok && sok && e1Attrs[iv.Name] && e2Attrs[sv.Name] {
			return corrEq{a1: iv.Name, a2: sv.Name, theta: value.CmpEq, member: true}, true
		}
	}
	return corrEq{}, false
}

func flipCmp(op value.CmpOp) value.CmpOp {
	switch op {
	case value.CmpLt:
		return value.CmpGt
	case value.CmpLe:
		return value.CmpGe
	case value.CmpGt:
		return value.CmpLt
	case value.CmpGe:
		return value.CmpLe
	default:
		return op
	}
}

// effectiveConjuncts are the conjuncts of e that can fail: true() and the
// constant true are dropped.
func effectiveConjuncts(e algebra.Expr) []algebra.Expr {
	var out []algebra.Expr
	for _, c := range algebra.Conjuncts(e) {
		if call, ok := c.(algebra.Call); ok && call.Fn == "true" && len(call.Args) == 0 {
			continue
		}
		if cv, ok := c.(algebra.ConstVal); ok && cv.V == value.Bool(true) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// disjointFree checks F(e2) ∩ A(e1) = ∅ modulo the correlation attribute:
// the only e1 attribute the nested expression may reference is the
// correlation variable itself (which the rewrite replaces by the join).
func disjointFree(e2 algebra.Op, residual algebra.Expr, e1 algebra.Op, corrA1 string) bool {
	e1Attrs := algebra.NameSet(e1.Attrs())
	fv := algebra.NameSet(algebra.FreeVarsOf(e2), true)
	if residual != nil {
		algebra.FreeVars(residual, fv)
	}
	for v := range fv {
		if v == corrA1 {
			continue
		}
		if e1Attrs[v] {
			return false
		}
	}
	return true
}

// fIndependentOf checks that f does not depend on the given attributes —
// the f(s) = f(Πa2(s)) = f(ΠA2(s)) requirement of Eqvs. 4 and 5.
func fIndependentOf(f algebra.SeqFunc, attrs ...string) bool {
	banned := map[string]bool{}
	for _, a := range attrs {
		banned[a] = true
	}
	switch w := f.(type) {
	case algebra.SFCount:
		return true
	case algebra.SFAgg:
		return !banned[w.Attr]
	case algebra.SFProject:
		for _, a := range w.Attrs {
			if banned[a] {
				return false
			}
		}
		return true
	case algebra.SFFiltered:
		fv := map[string]bool{}
		algebra.FreeVars(w.Pred, fv)
		for a := range banned {
			if fv[a] {
				return false
			}
		}
		return fIndependentOf(w.Inner, attrs...)
	default:
		// A function not listed here is taken to depend on every attribute.
		return false
	}
}
