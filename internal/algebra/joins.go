package algebra

import (
	"fmt"

	"nalquery/internal/value"
)

// eqPair is one A1 = A2 conjunct of a join predicate, with Left an attribute
// of the left input and Right one of the right input.
type eqPair struct{ Left, Right string }

// splitEqPred decomposes a predicate into equality pairs between left and
// right attributes plus a residual predicate. It reports ok=false when no
// equality pair could be extracted (then only nested-loop evaluation
// applies).
func splitEqPred(p Expr, lAttrs, rAttrs map[string]bool) (pairs []eqPair, residual Expr, ok bool) {
	var rest []Expr
	for _, c := range Conjuncts(p) {
		if cmp, isCmp := c.(CmpExpr); isCmp && cmp.Op == value.CmpEq {
			lv, lok := cmp.L.(Var)
			rv, rok := cmp.R.(Var)
			if lok && rok {
				switch {
				case lAttrs[lv.Name] && rAttrs[rv.Name]:
					pairs = append(pairs, eqPair{Left: lv.Name, Right: rv.Name})
					continue
				case rAttrs[lv.Name] && lAttrs[rv.Name]:
					pairs = append(pairs, eqPair{Left: rv.Name, Right: lv.Name})
					continue
				}
			}
		}
		rest = append(rest, c)
	}
	if len(pairs) == 0 {
		return nil, p, false
	}
	return pairs, AndOf(rest), true
}

// Conjuncts flattens an ∧ tree into its conjuncts, left to right; nil (no
// predicate) has none.
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(AndExpr); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// AndOf is the left-deep conjunction of es, the inverse of Conjuncts: nil
// for none.
func AndOf(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = AndExpr{L: out, R: e}
	}
	return out
}

// NameSet returns attribute names as a set, nil when they are not known — it
// takes an operator's Attrs() as it comes.
func NameSet(names []string, known bool) map[string]bool {
	if !known {
		return nil
	}
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// buildHash partitions tuples into buckets keyed by the hash key over attrs,
// preserving the order of tuples within each bucket.
func buildHash(ts value.TupleSeq, attrs []string) map[value.HashKey]value.TupleSeq {
	h := make(map[value.HashKey]value.TupleSeq, len(ts))
	for _, t := range ts {
		k := value.KeyOfAttrs(t, attrs)
		h[k] = append(h[k], t)
	}
	return h
}

// joinPlan prepares the hash-based execution of a binary predicate operator.
// Probing in left order with order-preserving buckets yields exactly the
// order of the definitional σp(e1 × e2) — the stand-in for the
// order-preserving hash join of Claussen et al. the paper cites.
type joinPlan struct {
	pairs    []eqPair
	lKeys    []string
	rKeys    []string
	residual Expr
	hash     map[value.HashKey]value.TupleSeq
	right    value.TupleSeq
	useHash  bool
}

func prepareJoin(ctx *Ctx, right value.TupleSeq, l, r Op, pred Expr) joinPlan {
	// The build side materializes here whether or not hashing applies.
	ctx.ChargeTuples(TripBuild, right)
	lSet := NameSet(l.Attrs())
	rSet := NameSet(r.Attrs())
	var jp joinPlan
	jp.right = right
	if lSet != nil && rSet != nil {
		if pairs, residual, ok := splitEqPred(pred, lSet, rSet); ok {
			jp.pairs = pairs
			jp.residual = residual
			for _, p := range pairs {
				jp.lKeys = append(jp.lKeys, p.Left)
				jp.rKeys = append(jp.rKeys, p.Right)
			}
			jp.hash = buildHash(right, jp.rKeys)
			jp.useHash = true
			return jp
		}
	}
	jp.residual = pred
	return jp
}

// matches returns the right tuples joining with lt, in right order.
func (jp *joinPlan) matches(ctx *Ctx, env value.Tuple, lt value.Tuple) value.TupleSeq {
	candidates := jp.right
	if jp.useHash {
		candidates = jp.hash[value.KeyOfAttrs(lt, jp.lKeys)]
	}
	if jp.residual == nil {
		return candidates
	}
	var out value.TupleSeq
	for _, rt := range candidates {
		if value.EffectiveBool(jp.residual.Eval(ctx, env.Concat(lt).Concat(rt))) {
			out = append(out, rt)
		}
	}
	return out
}

// anyMatch reports whether some right tuple joins with lt.
func (jp *joinPlan) anyMatch(ctx *Ctx, env value.Tuple, lt value.Tuple) bool {
	candidates := jp.right
	if jp.useHash {
		candidates = jp.hash[value.KeyOfAttrs(lt, jp.lKeys)]
	}
	if jp.residual == nil {
		return len(candidates) > 0
	}
	for _, rt := range candidates {
		if value.EffectiveBool(jp.residual.Eval(ctx, env.Concat(lt).Concat(rt))) {
			return true
		}
	}
	return false
}

// SemiJoin is the order-preserving semijoin e1 ⋉p e2: left tuples with at
// least one join partner (Sec. 2).
type SemiJoin struct {
	L, R Op
	Pred Expr
}

// Eval implements Op.
func (j SemiJoin) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	l := j.L.Eval(ctx, env)
	if len(l) == 0 {
		return nil
	}
	jp := prepareJoin(ctx, j.R.Eval(ctx, env), j.L, j.R, j.Pred)
	var out value.TupleSeq
	for _, lt := range l {
		ctx.Fault(TripProbe)
		if jp.anyMatch(ctx, env, lt) {
			out = append(out, lt)
		}
	}
	return out
}

func (j SemiJoin) String() string { return fmt.Sprintf("⋉[%s]", j.Pred.String()) }

// Children implements Op.
func (j SemiJoin) Children() []Op { return []Op{j.L, j.R} }

// MapChildren implements Op.
func (j SemiJoin) MapChildren(f func(Op) Op) Op { j.L, j.R = f(j.L), f(j.R); return j }

// Exprs implements Op.
func (j SemiJoin) Exprs() []Expr { return []Expr{j.Pred} }

// Attrs implements Op.
func (j SemiJoin) Attrs() ([]string, bool) { return j.L.Attrs() }

// AntiJoin is the order-preserving anti-join e1 ▷p e2: left tuples without
// any join partner (Sec. 2).
type AntiJoin struct {
	L, R Op
	Pred Expr
}

// Eval implements Op.
func (j AntiJoin) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	l := j.L.Eval(ctx, env)
	if len(l) == 0 {
		return nil
	}
	jp := prepareJoin(ctx, j.R.Eval(ctx, env), j.L, j.R, j.Pred)
	var out value.TupleSeq
	for _, lt := range l {
		ctx.Fault(TripProbe)
		if !jp.anyMatch(ctx, env, lt) {
			out = append(out, lt)
		}
	}
	return out
}

func (j AntiJoin) String() string { return fmt.Sprintf("▷[%s]", j.Pred.String()) }

// Children implements Op.
func (j AntiJoin) Children() []Op { return []Op{j.L, j.R} }

// MapChildren implements Op.
func (j AntiJoin) MapChildren(f func(Op) Op) Op { j.L, j.R = f(j.L), f(j.R); return j }

// Exprs implements Op.
func (j AntiJoin) Exprs() []Expr { return []Expr{j.Pred} }

// Attrs implements Op.
func (j AntiJoin) Attrs() ([]string, bool) { return j.L.Attrs() }

// OuterJoin is the paper's left outer join e1 ⟕[g:e]p e2 (Sec. 2): left
// tuples with join partners behave like the join; a left tuple without
// partner is padded with ⊥ on A(e2)\{g} and the attribute g receives the
// default value e — in the unnesting equivalences, e = f() applied to the
// empty group.
type OuterJoin struct {
	L, R Op
	Pred Expr
	// G is the grouped attribute of the right-hand side that receives the
	// default on padding.
	G string
	// Default computes e = f(ε), the value for empty groups.
	Default SeqFunc
}

// Eval implements Op.
func (j OuterJoin) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	l := j.L.Eval(ctx, env)
	if len(l) == 0 {
		return nil
	}
	jp := prepareJoin(ctx, j.R.Eval(ctx, env), j.L, j.R, j.Pred)
	rAttrs, rKnown := j.R.Attrs()
	if !rKnown && len(jp.right) > 0 {
		rAttrs = jp.right[0].Attrs()
	}
	var padAttrs []string
	for _, a := range rAttrs {
		if a != j.G {
			padAttrs = append(padAttrs, a)
		}
	}
	var out value.TupleSeq
	for _, lt := range l {
		ctx.Fault(TripProbe)
		ms := jp.matches(ctx, env, lt)
		if len(ms) == 0 {
			nt := lt.Concat(value.NullTuple(padAttrs))
			nt[j.G] = j.Default.Apply(ctx, env, nil)
			out = append(out, nt)
			continue
		}
		for _, rt := range ms {
			out = append(out, lt.Concat(rt))
		}
	}
	return out
}

func (j OuterJoin) String() string {
	return fmt.Sprintf("⟕[%s:%s(); %s]", j.G, j.Default.String(), j.Pred.String())
}

// Children implements Op.
func (j OuterJoin) Children() []Op { return []Op{j.L, j.R} }

// MapChildren implements Op.
func (j OuterJoin) MapChildren(f func(Op) Op) Op { j.L, j.R = f(j.L), f(j.R); return j }

// Exprs implements Op.
func (j OuterJoin) Exprs() []Expr { return []Expr{j.Pred} }

// Attrs implements Op.
func (j OuterJoin) Attrs() ([]string, bool) {
	l, ok1 := j.L.Attrs()
	r, ok2 := j.R.Attrs()
	if !ok1 || !ok2 {
		return nil, false
	}
	return unionAttrs(l, r), true
}
