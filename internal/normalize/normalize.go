// Package normalize implements the source-level normalization step of
// Sec. 3 of the paper. It rewrites an XQuery AST so that the translation of
// Sec. 3 produces algebra expressions matching the left-hand sides of the
// unnesting equivalences:
//
//  1. range expressions of quantifiers are embedded into new FLWR
//     expressions,
//  2. complex expressions are broken up with new let-bound variables,
//  3. single-use let-bound nested queries are fused into the aggregates that
//     consume them,
//  4. predicates of XPath expressions are moved into where clauses.
//
// All rewrites preserve the query semantics; they only expose structure.
package normalize

import (
	"fmt"

	"nalquery/internal/schema"
	"nalquery/internal/xquery"
)

// Normalizer rewrites queries. It hands out globally fresh variable names.
type Normalizer struct {
	used map[string]bool
	next int
	// visit is expr, bound once.
	visit func(xquery.Expr) xquery.Expr
	// docVars tracks let variables bound to doc()/document() calls, so that
	// nested query blocks can receive their own local document bindings.
	docVars map[string]xquery.Call
	// cat supplies the DTD facts the soundness-restricted rewrites need
	// (e.g. narrowing a universal quantifier's range variable to an
	// attribute requires the attribute to be #REQUIRED). May be nil.
	cat *schema.Catalog
}

// New creates a Normalizer.
func New() *Normalizer {
	n := &Normalizer{used: map[string]bool{}, docVars: map[string]xquery.Call{}}
	n.visit = n.expr
	return n
}

// NormalizeWithCatalog rewrites a parsed query using DTD facts to justify
// the fact-dependent rewrites of Sec. 5.5.
func NormalizeWithCatalog(e xquery.Expr, cat *schema.Catalog) xquery.Expr {
	n := New()
	n.cat = cat
	collectVars(e, n.used)
	return n.expr(e)
}

func (n *Normalizer) fresh(hint string) string {
	for {
		n.next++
		name := fmt.Sprintf("%s_%d", hint, n.next)
		if !n.used[name] {
			n.used[name] = true
			return name
		}
	}
}

// collectVars gathers every variable name the query binds.
func collectVars(e xquery.Expr, dst map[string]bool) {
	switch w := e.(type) {
	case xquery.FLWR:
		w.Scope(func(c xquery.Expr) { collectVars(c, dst) }, func(b xquery.Binding) {
			dst[b.Var] = true
			if b.Pos != "" {
				dst[b.Pos] = true
			}
		})
		return
	case xquery.Quant:
		dst[w.Var] = true
	}
	for i := 0; ; i++ {
		c := e.Child(i)
		if c == nil {
			return
		}
		collectVars(c, dst)
	}
}

// aggFns are the item-sequence functions whose FLWR arguments the normalizer
// keeps fused for translation into f(σ...(e)) form.
var aggFns = map[string]bool{
	"count": true, "min": true, "max": true, "sum": true, "avg": true,
}

// expr normalizes the two forms Sec. 3 rewrites and, through them, whatever
// holds one. Step predicates are normalized in place; they move where the
// path is bound (for clauses) or used (pathToFLWR).
func (n *Normalizer) expr(e xquery.Expr) xquery.Expr {
	switch w := e.(type) {
	case xquery.FLWR:
		return n.flwr(w)
	case xquery.Quant:
		return n.quant(w)
	}
	return e.MapChildren(n.visit)
}

// hasPred reports whether any step of the path carries a predicate.
func hasPred(p xquery.Path) bool {
	for _, s := range p.Steps {
		if s.Pred != nil && !isPositionalPred(s.Pred) {
			return true
		}
	}
	return false
}

// isPositionalPred recognizes the positional path predicates [n] and
// [last()]. They select by position, not by value, so the Sec. 3 rewrite
// that moves predicates into where clauses must not touch them: the path
// layer evaluates them directly.
func isPositionalPred(e xquery.Expr) bool {
	switch w := e.(type) {
	case xquery.NumLit:
		return w.V >= 1 && w.V == float64(int(w.V))
	case xquery.Call:
		return w.Fn == "last" && len(w.Args) == 0
	}
	return false
}

// pathToFLWR embeds a path with predicates into a new FLWR expression:
// base[pred]/rest becomes
//
//	for $f in base (lets for pred paths) where pred' for/return over $f/rest.
func (n *Normalizer) pathToFLWR(p xquery.Path) xquery.FLWR {
	// Find the first step with a value predicate (positional predicates
	// stay in the path).
	k := -1
	for i, s := range p.Steps {
		if s.Pred != nil && !isPositionalPred(s.Pred) {
			k = i
			break
		}
	}
	f := n.fresh("b")
	base := xquery.Path{Base: p.Base, Steps: append([]xquery.Step{}, p.Steps[:k+1]...)}
	pred := base.Steps[k].Pred
	base.Steps[k].Pred = nil

	var clauses []xquery.Clause
	clauses = append(clauses, xquery.ForClause{Bindings: []xquery.Binding{{Var: f, E: base}}})

	// Hoist context-relative paths of the predicate into lets and rewrite
	// the predicate to reference the new variables.
	pred = substContext(pred, xquery.VarRef{Name: f})
	var lets []xquery.Binding
	pred = n.hoistPredPaths(pred, f, &lets)
	if len(lets) > 0 {
		clauses = append(clauses, xquery.LetClause{Bindings: lets})
	}
	clauses = append(clauses, xquery.WhereClause{Cond: pred})

	rest := p.Steps[k+1:]
	var ret xquery.Expr = xquery.VarRef{Name: f}
	if len(rest) > 0 {
		rv := n.fresh("p")
		restPath := xquery.Path{Base: xquery.VarRef{Name: f}, Steps: append([]xquery.Step{}, rest...)}
		if hasPred(restPath) {
			inner := n.pathToFLWR(restPath)
			clauses = append(clauses, xquery.ForClause{Bindings: []xquery.Binding{{Var: rv, E: inner}}})
		} else {
			clauses = append(clauses, xquery.ForClause{Bindings: []xquery.Binding{{Var: rv, E: restPath}}})
		}
		ret = xquery.VarRef{Name: rv}
	}
	return xquery.FLWR{Clauses: clauses, Return: ret}
}

// hoistPredPaths replaces every path rooted at the context variable inside a
// predicate by a fresh let-bound variable ("we break up complex expressions
// and introduce new variables for subexpressions").
func (n *Normalizer) hoistPredPaths(e xquery.Expr, ctxVar string, lets *[]xquery.Binding) xquery.Expr {
	var hoist func(xquery.Expr) xquery.Expr
	hoist = func(e xquery.Expr) xquery.Expr {
		if w, ok := e.(xquery.Path); ok {
			if v, ok := w.Base.(xquery.VarRef); ok && v.Name == ctxVar && !hasPred(w) {
				hint := "w"
				if len(w.Steps) > 0 {
					hint = w.Steps[len(w.Steps)-1].Name
				}
				nv := n.fresh(hint)
				*lets = append(*lets, xquery.Binding{Var: nv, E: w})
				return xquery.VarRef{Name: nv}
			}
		}
		return e.MapChildren(hoist)
	}
	return hoist(e)
}

// substContext replaces the implicit context item of a predicate by the
// given expression.
func substContext(e xquery.Expr, to xquery.Expr) xquery.Expr {
	var sub func(xquery.Expr) xquery.Expr
	sub = func(e xquery.Expr) xquery.Expr {
		switch w := e.(type) {
		case xquery.ContextRef:
			return to
		case xquery.Path:
			// The step predicates of an inner path have their own context item.
			w.Base = sub(w.Base)
			return w
		}
		return e.MapChildren(sub)
	}
	return sub(e)
}

// subst replaces free occurrences of $from by the expression to.
func subst(e xquery.Expr, from string, to xquery.Expr) xquery.Expr {
	return substitution(from, to)(e)
}

// substitution is subst for applying to several expressions.
func substitution(from string, to xquery.Expr) func(xquery.Expr) xquery.Expr {
	var sub func(xquery.Expr) xquery.Expr
	sub = func(e xquery.Expr) xquery.Expr {
		switch w := e.(type) {
		case xquery.VarRef:
			if w.Name == from {
				return to
			}
			return e
		case xquery.Quant:
			w.Range = sub(w.Range)
			if w.Var != from {
				w.Sat = sub(w.Sat)
			}
			return w
		case xquery.FLWR:
			free := true // until a clause binds $from again
			return w.MapScoped(func(c xquery.Expr) xquery.Expr {
				if free {
					return sub(c)
				}
				return c
			}, func(b xquery.Binding) xquery.Binding {
				free = free && b.Var != from && b.Pos != from
				return b
			})
		}
		return e.MapChildren(sub)
	}
	return sub
}

// references reports whether $name occurs free in e.
func references(e xquery.Expr, name string) bool {
	switch w := e.(type) {
	case xquery.VarRef:
		return w.Name == name
	case xquery.Quant:
		return references(w.Range, name) || w.Var != name && references(w.Sat, name)
	case xquery.FLWR:
		found, free := false, true // free until a clause binds $name again
		w.Scope(func(c xquery.Expr) {
			found = found || free && references(c, name)
		}, func(b xquery.Binding) {
			free = free && b.Var != name && b.Pos != name
		})
		return found
	}
	for i := 0; ; i++ {
		c := e.Child(i)
		if c == nil {
			return false
		}
		if references(c, name) {
			return true
		}
	}
}
