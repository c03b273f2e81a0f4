package core

import (
	"nalquery/internal/algebra"
	"nalquery/internal/value"
)

// applySelfJoinGrouping implements the single-scan "grouping" plan of
// Sec. 5.4: when a semijoin's two sides scan the same document through the
// same paths (e1 ≅ e2 up to attribute renaming), the semijoin
//
//	Ξ(e1 ⋉ b1=b2 ∧ p(e2-attrs) e2)
//
// is replaced by one grouping pass over e2 alone:
//
//	Ξ'(σ c>0 (Γself c;=b2;count∘σp (σ exists(b2) (e2))))
//
// where Ξ' renames the e1 attributes of the commands to their e2
// counterparts. (The paper's Eqv. 8 presentation prints e2 attributes for
// exactly this reason; the explicit renaming keeps the result identical to
// the semijoin plan.)
func (rw *Rewriter) applySelfJoinGrouping(x algebra.XiSimple) (algebra.Op, bool) {
	j, ok := x.In.(algebra.SemiJoin)
	if !ok {
		return nil, false
	}
	// A residual selection pushed onto the inner operand (Sec. 5.5 style)
	// is absorbed back into the filter function.
	var pushed []algebra.Expr
	inner := j.R
	for {
		sel, isSel := inner.(algebra.Select)
		if !isSel {
			break
		}
		pushed = append(pushed, effectiveConjuncts(sel.Pred)...)
		inner = sel.In
	}
	j.R = inner
	corr, residual, ok := splitCorrelation(j.Pred, j.L, j.R)
	if !ok || corr.member || corr.theta != value.CmpEq {
		return nil, false
	}
	residual = algebra.AndOf(append(effectiveConjuncts(residual), pushed...))
	// Both sides must be pure scan pipelines (no filtering that could make
	// the streams diverge).
	if hasSelection(j.L) || hasSelection(j.R) {
		return nil, false
	}
	// Build the attribute correspondence e1 → e2 by provenance chain
	// equality; every non-document attribute of e1 must have exactly one
	// counterpart.
	mapping, ok := rw.matchPipelines(j.L, j.R, corr)
	if !ok {
		return nil, false
	}
	// The Ξ commands may reference only mapped attributes.
	var cmds []algebra.Command
	for _, c := range x.Cmds {
		if c.IsLit {
			cmds = append(cmds, c)
			continue
		}
		v, isVar := c.E.(algebra.Var)
		if !isVar {
			return nil, false
		}
		to, found := mapping[v.Name]
		if !found {
			return nil, false
		}
		c.E = algebra.Var{Name: to}
		cmds = append(cmds, c)
	}

	cAttr := corr.a2 + "#c"
	var f algebra.SeqFunc = algebra.SFCount{}
	if residual != nil {
		f = algebra.SFFiltered{Pred: residual, Inner: algebra.SFCount{}}
	}
	// Γself annotates each e2 tuple with the match count of its equality
	// group while keeping the input order — Γ followed by µ would emit
	// group-major, which breaks document order whenever equal key values
	// occur non-contiguously in e2 (the paper's Eqv. 8 assumes ΠD(e1)
	// precisely to sidestep this).
	grouped := algebra.GroupSelf{In: dropAbsentKeys(j.R, corr.a2), G: cAttr,
		By: []string{corr.a2}, F: f}
	filtered := algebra.Select{In: grouped,
		Pred: algebra.CmpExpr{L: algebra.Var{Name: cAttr}, R: algebra.ConstVal{V: value.Int(0)}, Op: value.CmpGt}}
	return algebra.XiSimple{In: filtered, Cmds: cmds}, true
}

// matchPipelines maps every non-document attribute of e1 to an e2 attribute
// with identical provenance (same document, same element chain). The
// correlation pair is part of the mapping.
func (rw *Rewriter) matchPipelines(e1, e2 algebra.Op, corr corrEq) (map[string]string, bool) {
	a1s, ok1 := e1.Attrs()
	a2s, ok2 := e2.Attrs()
	if !ok1 || !ok2 {
		return nil, false
	}
	mapping := map[string]string{corr.a1: corr.a2}
	used := map[string]bool{corr.a2: true}
	// Verify the correlation pair itself matches by chain.
	u1, c1, k1 := rw.chainOf(corr.a1)
	u2, c2, k2 := rw.chainOf(corr.a2)
	if !k1 || !k2 || u1 != u2 || c1 != c2 {
		return nil, false
	}
	for _, a := range a1s {
		if a == corr.a1 {
			continue
		}
		p := rw.Prov[a]
		if p.IsDoc {
			continue // document handles need no counterpart
		}
		ua, ca, known := rw.chainOf(a)
		if !known {
			return nil, false
		}
		found := ""
		for _, b := range a2s {
			if used[b] {
				continue
			}
			ub, cb, kb := rw.chainOf(b)
			if kb && ua == ub && ca == cb {
				found = b
				break
			}
		}
		if found == "" {
			return nil, false
		}
		used[found] = true
		mapping[a] = found
	}
	return mapping, true
}

func hasSelection(op algebra.Op) bool {
	if _, ok := op.(algebra.Select); ok {
		return true
	}
	for _, c := range op.Children() {
		if hasSelection(c) {
			return true
		}
	}
	return false
}

// applyXiFusion fuses Ξ over a renamed unary grouping with f = ΠA into the
// group-detecting Ξ operator (Sec. 5.1's final plan:
// s1;a2′;s2 Ξ s3 a2′;t2 (µD a2 (e2))), saving the materialization of the
// sequence-valued group attribute.
func (rw *Rewriter) applyXiFusion(x algebra.XiSimple) (algebra.Op, bool) {
	// Unwrap the group-key rename produced by renameGroupKey: either a plain
	// ΠA1:A2 or the atomizing χa1:string(a2) + Π̄a2 form.
	var a1, a2 string
	var keyExpr algebra.Expr // the command expression replacing a1
	var gu algebra.GroupUnary
	switch w := x.In.(type) {
	case algebra.ProjectRename:
		if len(w.Pairs) != 1 {
			return nil, false
		}
		g, ok := w.In.(algebra.GroupUnary)
		if !ok {
			return nil, false
		}
		gu = g
		a1, a2 = w.Pairs[0].New, w.Pairs[0].Old
		keyExpr = algebra.Var{Name: a2}
	case algebra.ProjectDrop:
		m, ok := w.In.(algebra.Map)
		if !ok {
			return nil, false
		}
		call, ok := m.E.(algebra.Call)
		if !ok || call.Fn != "string" || len(call.Args) != 1 {
			return nil, false
		}
		v, ok := call.Args[0].(algebra.Var)
		if !ok {
			return nil, false
		}
		g, ok := m.In.(algebra.GroupUnary)
		if !ok {
			return nil, false
		}
		gu = g
		a1, a2 = m.Attr, v.Name
		keyExpr = call
		if len(w.Names) != 1 || w.Names[0] != a2 {
			return nil, false
		}
	default:
		return nil, false
	}
	if gu.Theta != value.CmpEq || len(gu.By) != 1 {
		return nil, false
	}
	proj, ok := gu.F.(algebra.SFProject)
	if !ok || len(proj.Attrs) != 1 {
		return nil, false
	}
	if gu.By[0] != a2 {
		return nil, false
	}
	// Locate the single command printing the group attribute.
	gIdx := -1
	for i, c := range x.Cmds {
		if c.IsLit {
			continue
		}
		v, isVar := c.E.(algebra.Var)
		if !isVar {
			return nil, false
		}
		switch v.Name {
		case gu.G:
			if gIdx >= 0 || c.InAttr {
				// Printed twice, or inside an attribute value, whose atoms
				// one command joins: S2 prints each member on its own.
				return nil, false
			}
			gIdx = i
		case a1:
			// fine: renamed below
		default:
			return nil, false
		}
	}
	if gIdx < 0 {
		return nil, false
	}
	rename := func(cs []algebra.Command) []algebra.Command {
		out := make([]algebra.Command, 0, len(cs))
		for _, c := range cs {
			if !c.IsLit {
				if v, isVar := c.E.(algebra.Var); isVar && v.Name == a1 {
					c.E = keyExpr
				}
			}
			out = append(out, c)
		}
		return out
	}
	return algebra.XiGroup{
		In: gu.In,
		By: []string{a2},
		S1: rename(x.Cmds[:gIdx]),
		S2: []algebra.Command{algebra.ExprCmd(algebra.Var{Name: proj.Attrs[0]})},
		S3: rename(x.Cmds[gIdx+1:]),
	}, true
}
