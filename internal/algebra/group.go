package algebra

import (
	"fmt"
	"strings"

	"nalquery/internal/value"
)

// GroupUnary is the unary grouping operator Γg;θA;f(e) (Sec. 2): the group
// keys are the distinct A-projections of e (in first-occurrence order —
// deterministic and idempotent, which is all the paper requires of ΠD), and
// for each key the new attribute g holds f applied to the tuples of e whose
// A-attributes stand in relation θ to the key.
type GroupUnary struct {
	In    Op
	G     string
	By    []string
	Theta value.CmpOp
	F     SeqFunc
}

// Eval implements Op.
func (g GroupUnary) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := g.In.Eval(ctx, env)
	ctx.ChargeTuples(TripGroup, in)
	groups, _ := groupsOf(in, g.By)
	out := make(value.TupleSeq, 0, len(groups))
	for _, grp := range groups {
		key := grp[0].Project(g.By)
		var members value.TupleSeq
		for _, t := range in {
			if thetaMatch(key, t, g.By, g.By, g.Theta) {
				members = append(members, t)
			}
		}
		key[g.G] = g.F.Apply(ctx, env, members)
		out = append(out, key)
	}
	return out
}

func (g GroupUnary) String() string {
	return fmt.Sprintf("Γ[%s;%s%s;%s]", g.G, strings.Join(g.By, ","), g.Theta, g.F.String())
}

// Children implements Op.
func (g GroupUnary) Children() []Op { return []Op{g.In} }

// MapChildren implements Op.
func (g GroupUnary) MapChildren(f func(Op) Op) Op { g.In = f(g.In); return g }

// Exprs implements Op.
func (g GroupUnary) Exprs() []Expr { return nil }

// Attrs implements Op.
func (g GroupUnary) Attrs() ([]string, bool) {
	return unionAttrs(g.By, []string{g.G}), true
}

// groupsOf is the grouping of Γg;=By: the tuples of ts whose By-values are
// equal pairwise under the key rule (thetaHolds), as groups in first-occurrence
// order with their members in input order; of[i] is the group of ts[i].
func groupsOf(ts value.TupleSeq, by []string) (groups []value.TupleSeq, of []int) {
	of = make([]int, len(ts))
next:
	for i, t := range ts {
		for gi, grp := range groups {
			if thetaMatch(grp[0], t, by, by, value.CmpEq) {
				groups[gi], of[i] = append(grp, t), gi
				continue next
			}
		}
		groups, of[i] = append(groups, value.TupleSeq{t}), len(groups)
	}
	return groups, of
}

// thetaMatch reports whether the lAttrs of lt stand in θ to the rAttrs of rt,
// pairwise (thetaHolds).
func thetaMatch(lt, rt value.Tuple, lAttrs, rAttrs []string, op value.CmpOp) bool {
	for i := range lAttrs {
		if !thetaHolds(lt[lAttrs[i]], rt[rAttrs[i]], op) {
			return false
		}
	}
	return true
}

// thetaHolds applies θ under the atom rule, where = is the key rule: two
// values that atomize to nothing are equal too — Compare3 is 0 exactly when
// CompareAtomic's = holds or both sides are absent.
func thetaHolds(a, b value.Value, op value.CmpOp) bool {
	if op == value.CmpEq {
		return value.Compare3(a, b) == 0
	}
	return value.CompareAtomic(a, b, op)
}

// GroupSelf is the order-preserving self-grouping operator: every input
// tuple is extended by G holding F applied to the tuple's own equality
// group (all input tuples with the same By-key), and the tuples are emitted
// in input order. It is the sound single-scan form of "Γ, filter, µ" used
// by the Sec. 5.4 self-join grouping plan: unlike unnesting a unary
// grouping, tuples whose keys interleave in the input stay interleaved —
// which is what the paper's order-preservation claim requires when key
// values repeat non-contiguously.
type GroupSelf struct {
	In Op
	G  string
	By []string
	F  SeqFunc
}

// Eval implements Op.
func (g GroupSelf) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := g.In.Eval(ctx, env)
	ctx.ChargeTuples(TripGroup, in)
	groups, of := groupsOf(in, g.By)
	applied := make([]value.Value, len(groups))
	for gi, grp := range groups {
		applied[gi] = g.F.Apply(ctx, env, grp)
	}
	out := make(value.TupleSeq, 0, len(in))
	for i, t := range in {
		nt := t.Copy()
		nt[g.G] = applied[of[i]]
		out = append(out, nt)
	}
	return out
}

func (g GroupSelf) String() string {
	return fmt.Sprintf("Γself[%s;%s;%s]", g.G, strings.Join(g.By, ","), g.F.String())
}

// Children implements Op.
func (g GroupSelf) Children() []Op { return []Op{g.In} }

// MapChildren implements Op.
func (g GroupSelf) MapChildren(f func(Op) Op) Op { g.In = f(g.In); return g }

// Exprs implements Op.
func (g GroupSelf) Exprs() []Expr { return nil }

// Attrs implements Op.
func (g GroupSelf) Attrs() ([]string, bool) {
	in, ok := g.In.Attrs()
	if !ok {
		return nil, false
	}
	return unionAttrs(in, []string{g.G}), true
}

// GroupBinary is the binary grouping operator (nest-join)
// e1 Γg;A1θA2;f e2 (Sec. 2): every left tuple is extended by g holding f
// applied to the right tuples standing in relation θ. The left side
// determines the groups — the property the unnesting correctness hinges on.
type GroupBinary struct {
	L, R   Op
	G      string
	LAttrs []string
	RAttrs []string
	Theta  value.CmpOp
	F      SeqFunc
}

// Eval implements Op.
func (g GroupBinary) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	l := g.L.Eval(ctx, env)
	if len(l) == 0 {
		return nil
	}
	r := g.R.Eval(ctx, env)
	ctx.ChargeTuples(TripGroup, r)
	out := make(value.TupleSeq, 0, len(l))
	for _, lt := range l {
		var grp value.TupleSeq
		for _, rt := range r {
			if thetaMatch(lt, rt, g.LAttrs, g.RAttrs, g.Theta) {
				grp = append(grp, rt)
			}
		}
		nt := lt.Copy()
		nt[g.G] = g.F.Apply(ctx, env, grp)
		out = append(out, nt)
	}
	return out
}

func (g GroupBinary) String() string {
	return fmt.Sprintf("Γ[%s;%s%s%s;%s]", g.G, strings.Join(g.LAttrs, ","), g.Theta,
		strings.Join(g.RAttrs, ","), g.F.String())
}

// Children implements Op.
func (g GroupBinary) Children() []Op { return []Op{g.L, g.R} }

// MapChildren implements Op.
func (g GroupBinary) MapChildren(f func(Op) Op) Op { g.L, g.R = f(g.L), f(g.R); return g }

// Exprs implements Op.
func (g GroupBinary) Exprs() []Expr { return nil }

// Attrs implements Op.
func (g GroupBinary) Attrs() ([]string, bool) {
	l, ok := g.L.Attrs()
	if !ok {
		return nil, false
	}
	return unionAttrs(l, []string{g.G}), true
}

// UnnestDistinct is µD (Eqv. 4): unnesting that eliminates duplicate tuples
// within each nested sequence — µDg(e) = (α(e)|ḡ × ΠD(α(e).g)) ⊕ µDg(τ(e)).
// Unlike the paper's µ it does not ⊥-pad empty groups (the definition's × with the empty
// sequence is empty). A member is a duplicate of an earlier one when the two
// are equal pairwise under the key rule (thetaHolds) on every attribute either
// binds, an attribute a member does not bind being absent.
type UnnestDistinct struct {
	In   Op
	Attr string
}

// Eval implements Op.
func (u UnnestDistinct) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := u.In.Eval(ctx, env)
	var out value.TupleSeq
	for _, t := range in {
		base := t.Drop([]string{u.Attr})
		ts, _ := value.TuplesOf(t[u.Attr])
		var kept value.TupleSeq
	members:
		for _, g := range ts {
			for _, k := range kept {
				if attrs := unionAttrs(k.Attrs(), g.Attrs()); thetaMatch(k, g, attrs, attrs, value.CmpEq) {
					continue members
				}
			}
			ctx.charge(TripDedup, 0, dedupEntryBytes)
			kept = append(kept, g)
			out = append(out, base.Concat(g))
		}
	}
	return out
}

func (u UnnestDistinct) String() string { return fmt.Sprintf("µD[%s]", u.Attr) }

// Children implements Op.
func (u UnnestDistinct) Children() []Op { return []Op{u.In} }

// MapChildren implements Op.
func (u UnnestDistinct) MapChildren(f func(Op) Op) Op { u.In = f(u.In); return u }

// Exprs implements Op.
func (u UnnestDistinct) Exprs() []Expr { return nil }

// Attrs implements Op.
func (u UnnestDistinct) Attrs() ([]string, bool) { return nil, false }

// BindTuples is the e[a] constructor of Sec. 2 as an expression: it turns an
// item sequence into a sequence of single-attribute tuples — the form the
// translation uses for nested sequence-valued attributes (b2/author[a2']).
type BindTuples struct {
	E    Expr
	Attr string
}

// Eval implements Expr.
func (b BindTuples) Eval(ctx *Ctx, env value.Tuple) value.Value {
	return value.BindSeq(value.AsSeq(b.E.Eval(ctx, env)), b.Attr)
}

func (b BindTuples) String() string { return fmt.Sprintf("%s[%s]", b.E.String(), b.Attr) }

// Child and MapChildren implement Expr.
func (b BindTuples) Child(i int) Expr                   { return nth(i, b.E) }
func (b BindTuples) MapChildren(f func(Expr) Expr) Expr { b.E = f(b.E); return b }
