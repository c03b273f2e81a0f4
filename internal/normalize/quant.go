package normalize

import (
	"nalquery/internal/xquery"
)

// quant normalizes a quantified expression (Sec. 3 step 1: "we embed range
// expressions of quantifiers into new FLWR expressions", plus the rewrites
// of Sec. 5.5: unnest the correlation predicate and narrow the range
// variable).
func (n *Normalizer) quant(q xquery.Quant) xquery.Expr {
	rng := n.rangeToFLWR(n.expr(q.Range))
	sat := n.expr(q.Sat)

	// Under a quantifier, sequence multiplicity is irrelevant and XQuery's
	// range semantics iterates items: path-valued let bindings inside the
	// range become for bindings ("we unnest the authors of the correlation
	// predicate", Sec. 5.5).
	rng.Clauses = letPathsToFors(rng.Clauses)

	// Nested ranges get their own document bindings.
	rng = n.localizeDocVars(rng)

	rv, _ := rng.Return.(xquery.VarRef)

	// Range variable narrowing (Sec. 5.5: "since the year attribute is the
	// only information about books needed in the satisfies part of the
	// quantifier, we change the range variable"). If every use of the
	// quantifier variable in the satisfies clause is the same attribute step
	// $x/@a, bind that attribute inside the range and quantify over its
	// values.
	//
	// For existential quantifiers this is always sound: an item without the
	// attribute can never satisfy a comparison (general comparisons over the
	// empty sequence are false), and it contributes nothing after narrowing
	// either. For universal quantifiers an item without the attribute makes
	// the original ∀ false but would silently vanish from the narrowed
	// range, so the rewrite additionally requires the attribute to be
	// #REQUIRED in the DTD (true for the use-case book/@year).
	if rv.Name != "" {
		if p, ok := soleVarPath(sat, q.Var); ok && len(p.Steps) == 1 && p.Steps[0].Attribute {
			if !q.Every || n.attrRequired(rng, rv.Name, p.Steps[0].Name) {
				w := n.fresh(p.Steps[0].Name)
				rng.Clauses = append(rng.Clauses, xquery.LetClause{
					Bindings: []xquery.Binding{{Var: w, E: xquery.Path{Base: rv, Steps: p.Steps}}},
				})
				rng.Return = xquery.VarRef{Name: w}
				rv = xquery.VarRef{Name: w}
				sat = replaceVarPath(sat, q.Var)
			}
		}
	}

	// For existential quantifiers, conjuncts of the satisfies clause that
	// compare the quantifier variable itself move into the range's where
	// clause (Sec. 5.3: "We can move the correlation predicate into the
	// range expression"). ∃x∈D: c ∧ p ⟺ ∃x∈σc(D): p. This is unsound for
	// universal quantifiers and not applied there. Narrowing runs first, so
	// conjuncts exposed by it move too.
	if !q.Every && rv.Name != "" {
		conjuncts := splitAnd(sat)
		var kept []xquery.Expr
		var moved []xquery.Expr
		for _, c := range conjuncts {
			if cmpOnVar(c, q.Var) {
				moved = append(moved, subst(c, q.Var, rv))
			} else {
				kept = append(kept, c)
			}
		}
		if len(moved) > 0 {
			// Insert the moved predicate as a where clause before the final
			// return.
			rng.Clauses = append(rng.Clauses, xquery.WhereClause{Cond: joinAnd(moved)})
			sat = joinAnd(kept)
			if sat == nil {
				sat = xquery.Call{Fn: "true"}
			}
		}
	}

	return xquery.Quant{Every: q.Every, Var: q.Var, Range: rng, Sat: sat}
}

// attrRequired reports whether the attribute is #REQUIRED on the element
// the range variable ranges over, resolved through the range's for-binding
// chain back to a doc() call.
func (n *Normalizer) attrRequired(rng xquery.FLWR, rvName, attr string) bool {
	if n.cat == nil {
		return false
	}
	uri, elem := n.resolveRangeElem(rng, rvName, 0)
	if uri == "" || elem == "" || !n.cat.Has(uri) {
		return false
	}
	return n.cat.Doc(uri).RequiredAttr(elem, attr)
}

// resolveRangeElem traces a variable bound inside the range FLWR back to
// the document URI and element name it ranges over.
func (n *Normalizer) resolveRangeElem(rng xquery.FLWR, varName string, depth int) (uri, elem string) {
	if depth > 8 {
		return "", ""
	}
	for _, c := range rng.Clauses {
		var bindings []xquery.Binding
		switch cl := c.(type) {
		case xquery.ForClause:
			bindings = cl.Bindings
		case xquery.LetClause:
			bindings = cl.Bindings
		default:
			continue
		}
		for _, b := range bindings {
			if b.Var != varName {
				continue
			}
			p, ok := b.E.(xquery.Path)
			if !ok {
				return "", ""
			}
			// Resolve the path base to a document.
			switch base := p.Base.(type) {
			case xquery.Call:
				if base.Fn == "doc" || base.Fn == "document" {
					if len(base.Args) == 1 {
						if s, ok := base.Args[0].(xquery.StrLit); ok {
							uri = s.V
						}
					}
				}
			case xquery.VarRef:
				if call, isDoc := n.docVars[base.Name]; isDoc {
					if len(call.Args) == 1 {
						if s, ok := call.Args[0].(xquery.StrLit); ok {
							uri = s.V
						}
					}
				} else {
					// The base is itself range-bound: resolve recursively;
					// its element context is irrelevant here — the final
					// step name decides.
					uri, _ = n.resolveRangeElem(rng, base.Name, depth+1)
				}
			}
			for i := len(p.Steps) - 1; i >= 0; i-- {
				if !p.Steps[i].Attribute && p.Steps[i].Name != "" {
					elem = p.Steps[i].Name
					break
				}
			}
			return uri, elem
		}
	}
	return "", ""
}

// letPathsToFors converts let bindings over predicate-free paths into for
// bindings. This is only sound where tuple multiplicity does not matter —
// inside quantifier ranges — and matches XQuery's item-wise quantification.
func letPathsToFors(cs []xquery.Clause) []xquery.Clause {
	var out []xquery.Clause
	for _, c := range cs {
		let, ok := c.(xquery.LetClause)
		if !ok {
			out = append(out, c)
			continue
		}
		for _, b := range let.Bindings {
			if p, isPath := b.E.(xquery.Path); isPath && !hasPred(p) && !isAttrPath(p) {
				out = append(out, xquery.ForClause{Bindings: []xquery.Binding{b}})
			} else {
				out = append(out, xquery.LetClause{Bindings: []xquery.Binding{b}})
			}
		}
	}
	return out
}

// isAttrPath reports whether the path's final step is an attribute step
// (attributes are singletons; keeping them let-bound avoids needless
// unnesting).
func isAttrPath(p xquery.Path) bool {
	if len(p.Steps) == 0 {
		return false
	}
	return p.Steps[len(p.Steps)-1].Attribute
}

// rangeToFLWR embeds a quantifier range into a FLWR expression returning a
// variable.
func (n *Normalizer) rangeToFLWR(e xquery.Expr) xquery.FLWR {
	switch w := e.(type) {
	case xquery.FLWR:
		f := n.flwr(w)
		if _, ok := f.Return.(xquery.VarRef); !ok {
			rv := n.fresh("r")
			f.Clauses = append(f.Clauses, xquery.LetClause{
				Bindings: []xquery.Binding{{Var: rv, E: f.Return}},
			})
			f.Return = xquery.VarRef{Name: rv}
		}
		return f
	case xquery.Path:
		if hasPred(w) {
			return n.pathToFLWR(w)
		}
		v := n.fresh("r")
		return xquery.FLWR{
			Clauses: []xquery.Clause{xquery.ForClause{Bindings: []xquery.Binding{{Var: v, E: w}}}},
			Return:  xquery.VarRef{Name: v},
		}
	default:
		v := n.fresh("r")
		return xquery.FLWR{
			Clauses: []xquery.Clause{xquery.ForClause{Bindings: []xquery.Binding{{Var: v, E: e}}}},
			Return:  xquery.VarRef{Name: v},
		}
	}
}

func splitAnd(e xquery.Expr) []xquery.Expr {
	if a, ok := e.(xquery.And); ok {
		return append(splitAnd(a.L), splitAnd(a.R)...)
	}
	if c, ok := e.(xquery.Call); ok && c.Fn == "true" {
		return nil
	}
	return []xquery.Expr{e}
}

func joinAnd(es []xquery.Expr) xquery.Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = xquery.And{L: out, R: e}
	}
	return out
}

// cmpOnVar reports whether the expression is a comparison with the bare
// variable $x on one side (the correlation-predicate shape).
func cmpOnVar(e xquery.Expr, x string) bool {
	c, ok := e.(xquery.Cmp)
	if !ok {
		return false
	}
	if v, ok := c.L.(xquery.VarRef); ok && v.Name == x {
		return !references(c.R, x)
	}
	if v, ok := c.R.(xquery.VarRef); ok && v.Name == x {
		return !references(c.L, x)
	}
	return false
}

// soleVarPath reports whether all references to $x in e have the shape
// $x/steps with one common step list, and returns that path. An expression
// that binds $x again is not looked into: it says no.
func soleVarPath(e xquery.Expr, x string) (xquery.Path, bool) {
	var found *xquery.Path
	ok := true
	var walk func(e xquery.Expr)
	walk = func(e xquery.Expr) {
		switch w := e.(type) {
		case xquery.VarRef:
			ok = ok && w.Name != x
		case xquery.Quant:
			ok = ok && w.Var != x
		case xquery.FLWR:
			w.Scope(func(xquery.Expr) {}, func(b xquery.Binding) { ok = ok && b.Var != x && b.Pos != x })
		case xquery.Path:
			if v, isVar := w.Base.(xquery.VarRef); isVar && v.Name == x {
				switch {
				case hasPred(w):
					ok = false
				case found == nil:
					found = &w
				case pathStepsString(*found) != pathStepsString(w):
					ok = false
				}
				return
			}
		}
		for i := 0; ok; i++ {
			c := e.Child(i)
			if c == nil {
				return
			}
			walk(c)
		}
	}
	walk(e)
	if !ok || found == nil {
		return xquery.Path{}, false
	}
	return *found, true
}

func pathStepsString(p xquery.Path) string {
	s := ""
	for _, st := range p.Steps {
		s += st.String()
	}
	return s
}

// replaceVarPath replaces every occurrence of $x/steps by $x.
func replaceVarPath(e xquery.Expr, x string) xquery.Expr {
	var repl func(xquery.Expr) xquery.Expr
	repl = func(e xquery.Expr) xquery.Expr {
		if w, ok := e.(xquery.Path); ok {
			if v, isVar := w.Base.(xquery.VarRef); isVar && v.Name == x {
				return v
			}
		}
		return e.MapChildren(repl)
	}
	return repl(e)
}
