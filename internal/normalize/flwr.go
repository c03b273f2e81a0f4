package normalize

import (
	"slices"
	"sort"

	"nalquery/internal/xquery"
)

// flwr normalizes a FLWR expression.
func (n *Normalizer) flwr(f xquery.FLWR) xquery.FLWR {
	var out xquery.FLWR
	for _, c := range f.Clauses {
		switch cl := c.(type) {
		case xquery.ForClause:
			for _, b := range cl.Bindings {
				n.forBinding(&out, b)
			}
		case xquery.LetClause:
			for _, b := range cl.Bindings {
				e := n.letExpr(b.E)
				if call, ok := e.(xquery.Call); ok && (call.Fn == "doc" || call.Fn == "document") {
					n.docVars[b.Var] = call
				}
				out.Clauses = append(out.Clauses, xquery.LetClause{
					Bindings: []xquery.Binding{{Var: b.Var, E: e}},
				})
			}
		case xquery.WhereClause:
			cond := n.where(&out, cl.Cond)
			// Split a conjunctive where into one clause per conjunct
			// (sound by σp1(σp2(e)) = σp2(σp1(e)), Sec. 2): quantifier
			// conjuncts then sit alone in their selection, the shape
			// Eqvs. 6/7 match.
			for _, c := range whereConjuncts(cond) {
				appendWhere(&out, c)
			}
		case xquery.OrderByClause:
			specs := make([]xquery.OrderSpec, len(cl.Specs))
			for i, s := range cl.Specs {
				specs[i] = xquery.OrderSpec{Key: n.expr(s.Key), Descending: s.Descending}
			}
			out.Clauses = append(out.Clauses, xquery.OrderByClause{Specs: specs, Stable: cl.Stable})
		}
	}
	out.Return = n.returnClause(&out, f.Return)
	n.fuseAggLets(&out)
	return out
}

// whereConjuncts flattens a top-level conjunction into its conjuncts when
// one of them contains a quantifier. A conjunction with no quantified
// conjunct is kept whole — one σ with a conjunctive predicate is the
// translation's usual shape.
func whereConjuncts(cond xquery.Expr) []xquery.Expr {
	var flatten func(e xquery.Expr) []xquery.Expr
	flatten = func(e xquery.Expr) []xquery.Expr {
		if a, ok := e.(xquery.And); ok {
			return append(flatten(a.L), flatten(a.R)...)
		}
		return []xquery.Expr{e}
	}
	conjuncts := flatten(cond)
	for _, c := range conjuncts {
		if containsQuant(c) {
			return conjuncts
		}
	}
	return []xquery.Expr{cond}
}

// appendWhere adds a where clause to the clause list. A plain condition goes
// ahead of the quantified where clauses that end the list, by the same
// commutation: across a run of adjacent where clauses the plain ones come
// first, each kind keeping its order, so a plain selection sits below the
// quantifier's and filters before it.
func appendWhere(out *xquery.FLWR, cond xquery.Expr) {
	i := len(out.Clauses)
	for !containsQuant(cond) && i > 0 {
		w, ok := out.Clauses[i-1].(xquery.WhereClause)
		if !ok || !containsQuant(w.Cond) {
			break
		}
		i--
	}
	out.Clauses = slices.Insert(out.Clauses, i, xquery.Clause(xquery.WhereClause{Cond: cond}))
}

// containsQuant reports whether a quantified expression occurs in e at a
// position the Eqv. 6/7 matcher would see (the conjunct itself or its
// direct negation).
func containsQuant(e xquery.Expr) bool {
	switch w := e.(type) {
	case xquery.Quant:
		return true
	case xquery.Call:
		if w.Fn == "not" && len(w.Args) == 1 {
			return containsQuant(w.Args[0])
		}
	}
	return false
}

// forBinding appends the clauses of one for-binding, splitting path
// predicates and inlining nested FLWR ranges.
func (n *Normalizer) forBinding(out *xquery.FLWR, b xquery.Binding) {
	e := n.expr(b.E)
	if b.Pos != "" {
		// Positional bindings ("for $x at $i in e") keep their range
		// intact: splitting path predicates into where clauses or inlining
		// nested FLWR ranges would change the sequence whose positions $i
		// counts.
		out.Clauses = append(out.Clauses, xquery.ForClause{
			Bindings: []xquery.Binding{{Var: b.Var, Pos: b.Pos, E: e}},
		})
		return
	}
	if p, ok := e.(xquery.Path); ok && hasPred(p) {
		e = n.pathToFLWR(p)
	}
	if inner, ok := e.(xquery.FLWR); ok {
		// for $x in (for ... return $rv) — inline the inner clauses and
		// rename the returned variable to $x. Inner variables are fresh, so
		// renaming is capture-free.
		rv, ok := inner.Return.(xquery.VarRef)
		if !ok {
			// Inner return is not a variable: hoist it into a let first.
			rv = xquery.VarRef{Name: n.fresh("r")}
			inner.Clauses = append(inner.Clauses, xquery.LetClause{
				Bindings: []xquery.Binding{{Var: rv.Name, E: inner.Return}},
			})
			inner.Return = rv
		}
		out.Clauses = append(out.Clauses, renameVar(inner, rv.Name, b.Var).Clauses...)
		return
	}
	out.Clauses = append(out.Clauses, xquery.ForClause{
		Bindings: []xquery.Binding{{Var: b.Var, E: e}},
	})
}

// renameVar renames the variable $from of a FLWR expression: where a clause
// binds it and wherever it is read.
func renameVar(f xquery.FLWR, from, to string) xquery.FLWR {
	return f.MapScoped(substitution(from, xquery.VarRef{Name: to}), func(b xquery.Binding) xquery.Binding {
		if b.Var == from {
			b.Var = to
		}
		if b.Pos == from {
			b.Pos = to
		}
		return b
	})
}

// letExpr normalizes the bound expression of a let clause. Nested query
// blocks get local copies of the document variables they reference — the
// translation of Sec. 5 gives every nested block its own χ d:doc operator.
func (n *Normalizer) letExpr(e xquery.Expr) xquery.Expr {
	e = n.expr(e)
	switch w := e.(type) {
	case xquery.Path:
		if hasPred(w) {
			return n.localizeDocVars(n.pathToFLWR(w))
		}
		return w
	case xquery.Call:
		if aggFns[w.Fn] && len(w.Args) == 1 {
			if p, ok := w.Args[0].(xquery.Path); ok && hasPred(p) {
				return xquery.Call{Fn: w.Fn, Args: []xquery.Expr{n.localizeDocVars(n.pathToFLWR(p))}}
			}
			if f, ok := w.Args[0].(xquery.FLWR); ok {
				return xquery.Call{Fn: w.Fn, Args: []xquery.Expr{n.localizeDocVars(f)}}
			}
		}
		return w
	case xquery.FLWR:
		return n.localizeDocVars(w)
	default:
		return e
	}
}

// localizeDocVars gives a nested FLWR its own let bindings for free
// variables that the enclosing query binds to doc()/document() calls. The
// document value is identical, so the rewrite is a no-op semantically, but
// it makes the nested algebraic expression self-contained (F(e2) ∩ A(e1)
// shrinks to the correlation variables, as the unnesting conditions
// require).
func (n *Normalizer) localizeDocVars(f xquery.FLWR) xquery.FLWR {
	var names []string
	for v := range n.docVars {
		if references(f, v) {
			names = append(names, v)
		}
	}
	if len(names) == 0 {
		return f
	}
	sort.Strings(names)
	var pre []xquery.Clause
	for _, v := range names {
		local := n.fresh(v)
		pre = append(pre, xquery.LetClause{
			Bindings: []xquery.Binding{{Var: local, E: n.docVars[v]}},
		})
		f = renameVar(f, v, local)
	}
	f.Clauses = append(pre, f.Clauses...)
	return f
}

// where normalizes a where condition, hoisting aggregate subqueries into new
// let clauses and rewriting exists/empty into quantifiers. Each subtree is
// normalized exactly once (whereWalk dispatches; quant and expr handle their
// own recursion).
func (n *Normalizer) where(out *xquery.FLWR, cond xquery.Expr) xquery.Expr {
	return n.whereWalk(out, cond)
}

func (n *Normalizer) whereWalk(out *xquery.FLWR, e xquery.Expr) xquery.Expr {
	switch w := e.(type) {
	case xquery.And:
		return xquery.And{L: n.whereWalk(out, w.L), R: n.whereWalk(out, w.R)}
	case xquery.Or:
		return xquery.Or{L: n.whereWalk(out, w.L), R: n.whereWalk(out, w.R)}
	case xquery.Call:
		switch w.Fn {
		case "exists":
			if len(w.Args) == 1 {
				return n.quant(xquery.Quant{Var: n.fresh("q"), Range: w.Args[0],
					Sat: xquery.Call{Fn: "true"}})
			}
		case "empty":
			if len(w.Args) == 1 {
				return n.quant(xquery.Quant{Every: true, Var: n.fresh("q"), Range: w.Args[0],
					Sat: xquery.Call{Fn: "false"}})
			}
		case "not":
			if len(w.Args) == 1 {
				if inner, ok := w.Args[0].(xquery.Call); ok {
					switch inner.Fn {
					case "exists":
						return n.quant(xquery.Quant{Every: true, Var: n.fresh("q"),
							Range: inner.Args[0], Sat: xquery.Call{Fn: "false"}})
					case "empty":
						return n.quant(xquery.Quant{Var: n.fresh("q"),
							Range: inner.Args[0], Sat: xquery.Call{Fn: "true"}})
					}
				}
			}
		}
		return n.expr(w)
	case xquery.Quant:
		return n.quant(w)
	case xquery.Cmp:
		return xquery.Cmp{
			L:  n.hoistAgg(out, n.expr(w.L)),
			R:  n.hoistAgg(out, n.expr(w.R)),
			Op: w.Op,
		}
	default:
		return n.expr(e)
	}
}

// hoistAgg extracts aggregate calls over nested queries from a comparison
// operand into a preceding let clause (Sec. 5.6: "we extract the left
// argument of the general comparison, turn it into a let clause").
func (n *Normalizer) hoistAgg(out *xquery.FLWR, e xquery.Expr) xquery.Expr {
	call, ok := e.(xquery.Call)
	if !ok || !aggFns[call.Fn] || len(call.Args) != 1 {
		return e
	}
	arg := call.Args[0]
	if p, isPath := arg.(xquery.Path); isPath && hasPred(p) {
		arg = n.pathToFLWR(p)
	}
	if f, isFLWR := arg.(xquery.FLWR); isFLWR {
		arg = n.localizeDocVars(f)
	} else {
		return e
	}
	v := n.fresh("c")
	out.Clauses = append(out.Clauses, xquery.LetClause{
		Bindings: []xquery.Binding{{Var: v, E: xquery.Call{Fn: call.Fn, Args: []xquery.Expr{arg}}}},
	})
	return xquery.VarRef{Name: v}
}

// returnClause normalizes the return expression: nested queries inside
// constructors move into new let clauses ("Normalization of the query first
// moves the nested FLWR expression outside the return clause into a new let
// clause", Sec. 5.1).
func (n *Normalizer) returnClause(out *xquery.FLWR, ret xquery.Expr) xquery.Expr {
	switch w := ret.(type) {
	case xquery.ElemCtor:
		return n.ctor(out, w)
	case xquery.VarRef:
		return w
	case xquery.StrLit, xquery.NumLit:
		return w
	default:
		// Anything else is hoisted into a let so that nested query blocks
		// always return a plain variable (Sec. 5.1's normalization
		// introduces $t2 := $b2/title for exactly this reason).
		e := n.letExpr(w)
		v := n.fresh("t")
		out.Clauses = append(out.Clauses, xquery.LetClause{
			Bindings: []xquery.Binding{{Var: v, E: e}},
		})
		return xquery.VarRef{Name: v}
	}
}

func (n *Normalizer) ctor(out *xquery.FLWR, c xquery.ElemCtor) xquery.ElemCtor {
	nc := xquery.ElemCtor{Name: c.Name}
	for _, a := range c.Attrs {
		na := xquery.AttrCtor{Name: a.Name}
		for _, ct := range a.Content {
			na.Content = append(na.Content, n.content(out, ct))
		}
		nc.Attrs = append(nc.Attrs, na)
	}
	for _, ct := range c.Content {
		nc.Content = append(nc.Content, n.content(out, ct))
	}
	return nc
}

func (n *Normalizer) content(out *xquery.FLWR, ct xquery.Content) xquery.Content {
	if ct.IsLit {
		return ct
	}
	switch w := ct.E.(type) {
	case xquery.VarRef:
		return ct
	case xquery.ElemCtor:
		inner := n.ctor(out, w)
		return xquery.Content{E: inner}
	default:
		e := n.letExpr(w)
		switch e.(type) {
		case xquery.FLWR, xquery.Call, xquery.Path, xquery.Quant:
			v := n.fresh("t")
			out.Clauses = append(out.Clauses, xquery.LetClause{
				Bindings: []xquery.Binding{{Var: v, E: e}},
			})
			return xquery.Content{E: xquery.VarRef{Name: v}}
		default:
			return xquery.Content{E: e}
		}
	}
}

// fuseAggLets fuses `let $p := (FLWR)` with a single consuming
// `let $m := agg($p)` into `let $m := agg(FLWR)` — Sec. 5.2's normalized
// form, which exposes the χm:agg(σ...) pattern to the unnesting rewriter.
func (n *Normalizer) fuseAggLets(f *xquery.FLWR) {
	for i := 0; i < len(f.Clauses); i++ {
		let, ok := f.Clauses[i].(xquery.LetClause)
		if !ok || len(let.Bindings) != 1 {
			continue
		}
		b := let.Bindings[0]
		inner, isFLWR := b.E.(xquery.FLWR)
		if !isFLWR {
			continue
		}
		// Fusable: one expression of what follows uses the variable, and it is
		// a let-bound agg($p).
		uses := 0
		xquery.FLWR{Clauses: f.Clauses[i+1:], Return: f.Return}.Scope(func(e xquery.Expr) {
			if references(e, b.Var) {
				uses++
			}
		}, func(xquery.Binding) {})
		consumerClause, consumerBinding := -1, -1
		for j := i + 1; j < len(f.Clauses); j++ {
			cl, _ := f.Clauses[j].(xquery.LetClause)
			for k, lb := range cl.Bindings {
				if call, ok := lb.E.(xquery.Call); ok && aggFns[call.Fn] && len(call.Args) == 1 {
					if v, ok := call.Args[0].(xquery.VarRef); ok && v.Name == b.Var {
						consumerClause, consumerBinding = j, k
					}
				}
			}
		}
		if uses != 1 || consumerClause < 0 {
			continue
		}
		cl := f.Clauses[consumerClause].(xquery.LetClause)
		call := cl.Bindings[consumerBinding].E.(xquery.Call)
		cl.Bindings[consumerBinding].E = xquery.Call{Fn: call.Fn, Args: []xquery.Expr{inner}}
		f.Clauses[consumerClause] = cl
		// Drop the fused let.
		f.Clauses = append(f.Clauses[:i], f.Clauses[i+1:]...)
		i--
	}
}
