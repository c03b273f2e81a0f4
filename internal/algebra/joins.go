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

// joinTest is the definitional test of a ⋉, ▷ or ⟕ on a left and a right
// tuple: p on env ◦ lt ◦ rt. The attribute equalities A1 = A2 of p between
// the two inputs are equalities of keys, so they hold under the key rule
// (thetaHolds), as grouping's do. They are tested first and the rest of p is
// evaluated only where they hold — where the row engine's hash probe finds a
// candidate — so Stats.NestedEvals counts the same evaluations on both.
type joinTest struct {
	lKeys, rKeys []string
	rest         Expr // nil when p is its equalities
}

// newJoinTest splits p into its attribute equalities between l and r and the
// rest, where the attributes of both are known; otherwise all of p is rest.
func newJoinTest(l, r Op, pred Expr) joinTest {
	jt := joinTest{rest: pred}
	if lSet, rSet := NameSet(l.Attrs()), NameSet(r.Attrs()); lSet != nil && rSet != nil {
		if pairs, rest, ok := splitEqPred(pred, lSet, rSet); ok {
			jt.rest = rest
			for _, p := range pairs {
				jt.lKeys = append(jt.lKeys, p.Left)
				jt.rKeys = append(jt.rKeys, p.Right)
			}
		}
	}
	return jt
}

// holds reports whether lt and rt join; envL is env ◦ lt.
func (jt joinTest) holds(ctx *Ctx, envL, lt, rt value.Tuple) bool {
	return thetaMatch(lt, rt, jt.lKeys, jt.rKeys, value.CmpEq) &&
		(jt.rest == nil || value.EffectiveBool(jt.rest.Eval(ctx, envL.Concat(rt))))
}

// semiAnti is e1 ⋉p e2 for want true and e1 ▷p e2 for want false, over the
// evaluated inputs: the left tuples for which having a partner is want. The
// test of a left tuple stops at its first partner, as ∃ does.
func semiAnti(ctx *Ctx, env value.Tuple, l, right value.TupleSeq, jt joinTest, want bool) value.TupleSeq {
	ctx.ChargeTuples(TripBuild, right)
	var out value.TupleSeq
	for _, lt := range l {
		ctx.Fault(TripProbe)
		envL := env.Concat(lt)
		found := false
		for _, rt := range right {
			if found = jt.holds(ctx, envL, lt, rt); found {
				break
			}
		}
		if found == want {
			out = append(out, lt)
		}
	}
	return out
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
	return semiAnti(ctx, env, l, j.R.Eval(ctx, env), newJoinTest(j.L, j.R, j.Pred), true)
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
	return semiAnti(ctx, env, l, j.R.Eval(ctx, env), newJoinTest(j.L, j.R, j.Pred), false)
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
	right := j.R.Eval(ctx, env)
	ctx.ChargeTuples(TripBuild, right)
	jt := newJoinTest(j.L, j.R, j.Pred)
	rAttrs, rKnown := j.R.Attrs()
	if !rKnown && len(right) > 0 {
		rAttrs = right[0].Attrs()
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
		envL, n := env.Concat(lt), len(out)
		for _, rt := range right {
			if jt.holds(ctx, envL, lt, rt) {
				out = append(out, lt.Concat(rt))
			}
		}
		if len(out) == n {
			nt := lt.Concat(value.NullTuple(padAttrs))
			nt[j.G] = j.Default.Apply(ctx, env, nil)
			out = append(out, nt)
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
