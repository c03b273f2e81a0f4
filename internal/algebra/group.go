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
	keys, buckets := partition(in, g.By)
	var out value.TupleSeq
	if g.Theta == value.CmpEq {
		for _, k := range keys {
			b := buckets[k]
			nt := b[0].Project(g.By)
			nt[g.G] = g.F.Apply(ctx, env, b)
			out = append(out, nt)
		}
		return out
	}
	// General θ: compare every distinct key against every input tuple.
	for _, k := range keys {
		keyT := buckets[k][0].Project(g.By)
		var grp value.TupleSeq
		for _, t := range in {
			if thetaMatch(keyT, t, g.By, g.By, g.Theta) {
				grp = append(grp, t)
			}
		}
		nt := keyT.Copy()
		nt[g.G] = g.F.Apply(ctx, env, grp)
		out = append(out, nt)
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

// partition splits tuples into buckets by the hash key over attrs; keys are
// returned in first-occurrence order and buckets preserve input order.
func partition(ts value.TupleSeq, attrs []string) ([]value.HashKey, map[value.HashKey]value.TupleSeq) {
	var keys []value.HashKey
	buckets := make(map[value.HashKey]value.TupleSeq, len(ts))
	for _, t := range ts {
		k := value.KeyOfAttrs(t, attrs)
		if _, ok := buckets[k]; !ok {
			keys = append(keys, k)
		}
		buckets[k] = append(buckets[k], t)
	}
	return keys, buckets
}

func thetaMatch(lt, rt value.Tuple, lAttrs, rAttrs []string, op value.CmpOp) bool {
	for i := range lAttrs {
		if !value.CompareAtomic(lt[lAttrs[i]], rt[rAttrs[i]], op) {
			return false
		}
	}
	return true
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
	_, buckets := partition(in, g.By)
	applied := make(map[value.HashKey]value.Value, len(buckets))
	out := make(value.TupleSeq, 0, len(in))
	for _, t := range in {
		k := value.KeyOfAttrs(t, g.By)
		v, ok := applied[k]
		if !ok {
			v = g.F.Apply(ctx, env, buckets[k])
			applied[k] = v
		}
		nt := t.Copy()
		nt[g.G] = v
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
	if g.Theta == value.CmpEq {
		hash := buildHash(r, g.RAttrs)
		for _, lt := range l {
			grp := hash[value.KeyOfAttrs(lt, g.LAttrs)]
			nt := lt.Copy()
			nt[g.G] = g.F.Apply(ctx, env, grp)
			out = append(out, nt)
		}
		return out
	}
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

// Unnest is the µg operator (Sec. 2): it flattens the tuple-sequence-valued
// attribute g. A tuple whose g is empty yields one output tuple padded with
// ⊥ on the attributes of g ("In case that g is empty, it returns the tuple
// ⊥A(e.g)").
type Unnest struct {
	In   Op
	Attr string
	// InnerAttrs optionally names A(e.g) for ⊥-padding when every group in
	// the input is empty; otherwise the attribute set is inferred from the
	// first non-empty group.
	InnerAttrs []string
}

// Eval implements Op.
func (u Unnest) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := u.In.Eval(ctx, env)
	// The ⊥-pad attribute set A(e.g) resolves lazily, on the first empty
	// group: the schema resolver names it even when every group is empty
	// (the paper defines ⊥A(e.g) by the schema, not by an observed member;
	// nested evaluation re-runs Eval per outer tuple, so the subtree walk
	// must not be paid when nothing pads). Observation remains the
	// fallback for inputs the resolver cannot type.
	inner := u.InnerAttrs
	resolved := inner != nil
	padAttrs := func() []string {
		if resolved {
			return inner
		}
		resolved = true
		if inner = staticInnerAttrs(u.In, u.Attr); inner != nil {
			return inner
		}
		for _, t := range in {
			// TuplesOf admits both payload representations: a slot-native
			// child below a map-engine plan hands groups over as RowSeq.
			if ts, ok := value.TuplesOf(t[u.Attr]); ok && len(ts) > 0 {
				inner = ts[0].Attrs()
				break
			}
		}
		return inner
	}
	var out value.TupleSeq
	for _, t := range in {
		base := t.Drop([]string{u.Attr})
		ts, _ := value.TuplesOf(t[u.Attr])
		if len(ts) == 0 {
			out = append(out, base.Concat(value.NullTuple(padAttrs())))
			continue
		}
		for _, g := range ts {
			out = append(out, base.Concat(g))
		}
	}
	return out
}

// staticInnerAttrs returns the statically known attribute set of a
// tuple-sequence-valued attribute of in's output, or nil.
func staticInnerAttrs(in Op, attr string) []string {
	if insc, ok := ResolveSchema(in); ok {
		if nested := insc.nested(attr); nested != nil && nested.Lay != nil {
			return nested.Lay.Names()
		}
	}
	return nil
}

func (u Unnest) String() string { return fmt.Sprintf("µ[%s]", u.Attr) }

// Children implements Op.
func (u Unnest) Children() []Op { return []Op{u.In} }

// MapChildren implements Op.
func (u Unnest) MapChildren(f func(Op) Op) Op { u.In = f(u.In); return u }

// Exprs implements Op.
func (u Unnest) Exprs() []Expr { return nil }

// Attrs implements Op.
func (u Unnest) Attrs() ([]string, bool) {
	in, ok := u.In.Attrs()
	if !ok || u.InnerAttrs == nil {
		return nil, false
	}
	var kept []string
	for _, a := range in {
		if a != u.Attr {
			kept = append(kept, a)
		}
	}
	return unionAttrs(kept, u.InnerAttrs), true
}

// UnnestDistinct is µD (Eqv. 4): unnesting that eliminates duplicate tuples
// within each nested sequence — µDg(e) = (α(e)|ḡ × ΠD(α(e).g)) ⊕ µDg(τ(e)).
// Unlike µ it does not ⊥-pad empty groups (the definition's × with the empty
// sequence is empty).
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
		seen := map[value.HashKey]bool{}
		for _, g := range ts {
			k := value.KeyOfAttrs(g, g.Attrs())
			if seen[k] {
				continue
			}
			ctx.charge(TripDedup, 0, dedupEntryBytes)
			seen[k] = true
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

// FreeVars implements Expr.
func (b BindTuples) FreeVars(dst map[string]bool) { b.E.FreeVars(dst) }

// Child and MapChildren implement Expr.
func (b BindTuples) Child(i int) Expr                   { return nth(i, b.E) }
func (b BindTuples) MapChildren(f func(Expr) Expr) Expr { b.E = f(b.E); return b }
