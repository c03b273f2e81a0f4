package algebra

import (
	"fmt"
	"sort"
	"strings"

	"nalquery/internal/value"
)

// The unordered operator family. The paper opens (Sec. 1) with the
// observation that the object-oriented unnesting techniques of Cluet and
// Moerkotte [9, 10] apply when the result's order is irrelevant — when the
// query is wrapped in XQuery's unordered() function, or inside contexts the
// processor can prove order-insensitive (aggregates, distinct-values,
// quantifiers). These operators are the engine's unordered algebra: they
// compute the same bags as their order-preserving counterparts but emit
// output in join/group key order instead of probe order — the natural order
// of a partitioned hash implementation, which never pays for order
// bookkeeping. Determinism is retained (key order is a fixed total order),
// as the paper requires of even its non-order-preserving operators (ΠD).
//
// Correctness contract, property-tested in unordered_test.go: for every
// operator U with ordered counterpart O, U(e…) is a permutation of O(e…),
// and U is insensitive to permutations of its inputs whenever its subscript
// function is.

// partitionSorted splits tuples into HashKey buckets and returns the keys
// in the canonical value.LessKey order — the deterministic partition order
// the family emits output in. The slot engine's row iterators partition
// with the same key function and the same order, so both engines produce
// identical sequences (differential-tested in partitioned_rows_test.go).
func partitionSorted(ts value.TupleSeq, attrs []string) ([]value.HashKey, map[value.HashKey]value.TupleSeq) {
	buckets := make(map[value.HashKey]value.TupleSeq, len(ts))
	var keys []value.HashKey
	for _, t := range ts {
		k := tupleHashKey(t, attrs)
		if _, ok := buckets[k]; !ok {
			keys = append(keys, k)
		}
		buckets[k] = append(buckets[k], t)
	}
	sort.Slice(keys, func(i, j int) bool { return value.LessKey(keys[i], keys[j]) })
	return keys, buckets
}

// hashBuckets is the build side of the partitioned operators: HashKey
// buckets preserving input order, no key list.
func hashBuckets(ts value.TupleSeq, attrs []string) map[value.HashKey]value.TupleSeq {
	h := make(map[value.HashKey]value.TupleSeq, len(ts))
	for _, t := range ts {
		k := tupleHashKey(t, attrs)
		h[k] = append(h[k], t)
	}
	return h
}

// UnorderedJoin is the unordered hash join: the bag σ[A1=A2 ∧ residual]
// (e1 × e2) emitted in key order.
type UnorderedJoin struct {
	L, R     Op
	LAttrs   []string
	RAttrs   []string
	Residual Expr
}

// Eval implements Op.
func (j UnorderedJoin) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	l := j.L.Eval(ctx, env)
	if len(l) == 0 {
		return nil
	}
	r := j.R.Eval(ctx, env)
	ctx.ChargeTuples(TripPartition, l)
	ctx.ChargeTuples(TripPartition, r)
	keys, lParts := partitionSorted(l, j.LAttrs)
	rParts := hashBuckets(r, j.RAttrs)
	var out value.TupleSeq
	for _, k := range keys {
		rp := rParts[k]
		if len(rp) == 0 {
			continue
		}
		for _, lt := range lParts[k] {
			for _, rt := range rp {
				if j.Residual != nil &&
					!value.EffectiveBool(j.Residual.Eval(ctx, env.Concat(lt).Concat(rt))) {
					continue
				}
				out = append(out, lt.Concat(rt))
			}
		}
	}
	return out
}

func (j UnorderedJoin) String() string {
	return fmt.Sprintf("⋈ᵁ[%s=%s]", strings.Join(j.LAttrs, ","), strings.Join(j.RAttrs, ","))
}

// Children implements Op.
func (j UnorderedJoin) Children() []Op { return []Op{j.L, j.R} }

// MapChildren implements Op.
func (j UnorderedJoin) MapChildren(f func(Op) Op) Op { j.L, j.R = f(j.L), f(j.R); return j }

// Exprs implements Op.
func (j UnorderedJoin) Exprs() []Expr {
	if j.Residual != nil {
		return []Expr{j.Residual}
	}
	return nil
}

// Attrs implements Op.
func (j UnorderedJoin) Attrs() ([]string, bool) {
	l, ok1 := j.L.Attrs()
	r, ok2 := j.R.Attrs()
	if !ok1 || !ok2 {
		return nil, false
	}
	return unionAttrs(l, r), true
}

// UnorderedSemiJoin emits, in key order, the left tuples with at least one
// join partner.
type UnorderedSemiJoin struct {
	L, R     Op
	LAttrs   []string
	RAttrs   []string
	Residual Expr
}

// Eval implements Op.
func (j UnorderedSemiJoin) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	l := j.L.Eval(ctx, env)
	if len(l) == 0 {
		return nil
	}
	r := j.R.Eval(ctx, env)
	ctx.ChargeTuples(TripPartition, l)
	ctx.ChargeTuples(TripPartition, r)
	keys, lParts := partitionSorted(l, j.LAttrs)
	rParts := hashBuckets(r, j.RAttrs)
	var out value.TupleSeq
	for _, k := range keys {
		rp := rParts[k]
		if len(rp) == 0 {
			continue
		}
		for _, lt := range lParts[k] {
			if j.Residual == nil {
				out = append(out, lt)
				continue
			}
			for _, rt := range rp {
				if value.EffectiveBool(j.Residual.Eval(ctx, env.Concat(lt).Concat(rt))) {
					out = append(out, lt)
					break
				}
			}
		}
	}
	return out
}

func (j UnorderedSemiJoin) String() string {
	return fmt.Sprintf("⋉ᵁ[%s=%s]", strings.Join(j.LAttrs, ","), strings.Join(j.RAttrs, ","))
}

// Children implements Op.
func (j UnorderedSemiJoin) Children() []Op { return []Op{j.L, j.R} }

// MapChildren implements Op.
func (j UnorderedSemiJoin) MapChildren(f func(Op) Op) Op { j.L, j.R = f(j.L), f(j.R); return j }

// Exprs implements Op.
func (j UnorderedSemiJoin) Exprs() []Expr {
	if j.Residual != nil {
		return []Expr{j.Residual}
	}
	return nil
}

// Attrs implements Op.
func (j UnorderedSemiJoin) Attrs() ([]string, bool) { return j.L.Attrs() }

// UnorderedAntiJoin emits, in key order, the left tuples without any join
// partner.
type UnorderedAntiJoin struct {
	L, R     Op
	LAttrs   []string
	RAttrs   []string
	Residual Expr
}

// Eval implements Op.
func (j UnorderedAntiJoin) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	l := j.L.Eval(ctx, env)
	if len(l) == 0 {
		return nil
	}
	r := j.R.Eval(ctx, env)
	ctx.ChargeTuples(TripPartition, l)
	ctx.ChargeTuples(TripPartition, r)
	keys, lParts := partitionSorted(l, j.LAttrs)
	rParts := hashBuckets(r, j.RAttrs)
	var out value.TupleSeq
	for _, k := range keys {
		rp := rParts[k]
		for _, lt := range lParts[k] {
			matched := false
			for _, rt := range rp {
				if j.Residual == nil ||
					value.EffectiveBool(j.Residual.Eval(ctx, env.Concat(lt).Concat(rt))) {
					matched = true
					break
				}
			}
			if !matched {
				out = append(out, lt)
			}
		}
	}
	return out
}

func (j UnorderedAntiJoin) String() string {
	return fmt.Sprintf("▷ᵁ[%s=%s]", strings.Join(j.LAttrs, ","), strings.Join(j.RAttrs, ","))
}

// Children implements Op.
func (j UnorderedAntiJoin) Children() []Op { return []Op{j.L, j.R} }

// MapChildren implements Op.
func (j UnorderedAntiJoin) MapChildren(f func(Op) Op) Op { j.L, j.R = f(j.L), f(j.R); return j }

// Exprs implements Op.
func (j UnorderedAntiJoin) Exprs() []Expr {
	if j.Residual != nil {
		return []Expr{j.Residual}
	}
	return nil
}

// Attrs implements Op.
func (j UnorderedAntiJoin) Attrs() ([]string, bool) { return j.L.Attrs() }

// UnorderedOuterJoin is the unordered counterpart of the paper's ⟕ with
// defaults: matched left tuples join as usual, unmatched ones are ⊥-padded
// with the default on G — all in key order.
type UnorderedOuterJoin struct {
	L, R    Op
	LAttrs  []string
	RAttrs  []string
	G       string
	Default SeqFunc
}

// Eval implements Op.
func (j UnorderedOuterJoin) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	l := j.L.Eval(ctx, env)
	if len(l) == 0 {
		return nil
	}
	r := j.R.Eval(ctx, env)
	ctx.ChargeTuples(TripPartition, l)
	ctx.ChargeTuples(TripPartition, r)
	rAttrs, rKnown := j.R.Attrs()
	if !rKnown && len(r) > 0 {
		rAttrs = r[0].Attrs()
	}
	var padAttrs []string
	for _, a := range rAttrs {
		if a != j.G {
			padAttrs = append(padAttrs, a)
		}
	}
	keys, lParts := partitionSorted(l, j.LAttrs)
	rParts := hashBuckets(r, j.RAttrs)
	var out value.TupleSeq
	for _, k := range keys {
		rp := rParts[k]
		for _, lt := range lParts[k] {
			if len(rp) == 0 {
				nt := lt.Concat(value.NullTuple(padAttrs))
				nt[j.G] = j.Default.Apply(ctx, env, nil)
				out = append(out, nt)
				continue
			}
			for _, rt := range rp {
				out = append(out, lt.Concat(rt))
			}
		}
	}
	return out
}

func (j UnorderedOuterJoin) String() string {
	return fmt.Sprintf("⟕ᵁ[%s:%s(); %s=%s]", j.G, j.Default.String(),
		strings.Join(j.LAttrs, ","), strings.Join(j.RAttrs, ","))
}

// Children implements Op.
func (j UnorderedOuterJoin) Children() []Op { return []Op{j.L, j.R} }

// MapChildren implements Op.
func (j UnorderedOuterJoin) MapChildren(f func(Op) Op) Op { j.L, j.R = f(j.L), f(j.R); return j }

// Exprs implements Op.
func (j UnorderedOuterJoin) Exprs() []Expr { return nil }

// Attrs implements Op.
func (j UnorderedOuterJoin) Attrs() ([]string, bool) {
	l, ok1 := j.L.Attrs()
	r, ok2 := j.R.Attrs()
	if !ok1 || !ok2 {
		return nil, false
	}
	return unionAttrs(l, r), true
}

// UnorderedGroupUnary is Γ emitting one tuple per distinct key in key order
// (the ordered operator emits keys in first-occurrence order). Only θ = '='
// admits the hash implementation; general θ falls back to comparing every
// key against every tuple, still in key order.
type UnorderedGroupUnary struct {
	In    Op
	G     string
	By    []string
	Theta value.CmpOp
	F     SeqFunc
}

// Eval implements Op.
func (g UnorderedGroupUnary) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := g.In.Eval(ctx, env)
	ctx.ChargeTuples(TripPartition, in)
	keys, buckets := partitionSorted(in, g.By)
	var out value.TupleSeq
	for _, k := range keys {
		b := buckets[k]
		keyT := b[0].Project(g.By)
		grp := b
		if g.Theta != value.CmpEq {
			grp = nil
			for _, t := range in {
				if thetaMatch(keyT, t, g.By, g.By, g.Theta) {
					grp = append(grp, t)
				}
			}
		}
		nt := keyT.Copy()
		nt[g.G] = g.F.Apply(ctx, env, grp)
		out = append(out, nt)
	}
	return out
}

func (g UnorderedGroupUnary) String() string {
	return fmt.Sprintf("Γᵁ[%s;%s%s;%s]", g.G, strings.Join(g.By, ","), g.Theta, g.F.String())
}

// Children implements Op.
func (g UnorderedGroupUnary) Children() []Op { return []Op{g.In} }

// MapChildren implements Op.
func (g UnorderedGroupUnary) MapChildren(f func(Op) Op) Op { g.In = f(g.In); return g }

// Exprs implements Op.
func (g UnorderedGroupUnary) Exprs() []Expr { return nil }

// Attrs implements Op.
func (g UnorderedGroupUnary) Attrs() ([]string, bool) {
	return unionAttrs(g.By, []string{g.G}), true
}

// UnorderedGroupBinary is the nest-join emitting left tuples in key order.
type UnorderedGroupBinary struct {
	L, R   Op
	G      string
	LAttrs []string
	RAttrs []string
	Theta  value.CmpOp
	F      SeqFunc
}

// Eval implements Op.
func (g UnorderedGroupBinary) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	l := g.L.Eval(ctx, env)
	if len(l) == 0 {
		return nil
	}
	r := g.R.Eval(ctx, env)
	ctx.ChargeTuples(TripPartition, l)
	ctx.ChargeTuples(TripPartition, r)
	keys, lParts := partitionSorted(l, g.LAttrs)
	var rHash map[value.HashKey]value.TupleSeq
	if g.Theta == value.CmpEq {
		rHash = hashBuckets(r, g.RAttrs)
	}
	var out value.TupleSeq
	for _, k := range keys {
		for _, lt := range lParts[k] {
			var grp value.TupleSeq
			if g.Theta == value.CmpEq {
				grp = rHash[k]
			} else {
				for _, rt := range r {
					if thetaMatch(lt, rt, g.LAttrs, g.RAttrs, g.Theta) {
						grp = append(grp, rt)
					}
				}
			}
			nt := lt.Copy()
			nt[g.G] = g.F.Apply(ctx, env, grp)
			out = append(out, nt)
		}
	}
	return out
}

func (g UnorderedGroupBinary) String() string {
	return fmt.Sprintf("Γᵁ[%s;%s%s%s;%s]", g.G, strings.Join(g.LAttrs, ","), g.Theta,
		strings.Join(g.RAttrs, ","), g.F.String())
}

// Children implements Op.
func (g UnorderedGroupBinary) Children() []Op { return []Op{g.L, g.R} }

// MapChildren implements Op.
func (g UnorderedGroupBinary) MapChildren(f func(Op) Op) Op { g.L, g.R = f(g.L), f(g.R); return g }

// Exprs implements Op.
func (g UnorderedGroupBinary) Exprs() []Expr { return nil }

// Attrs implements Op.
func (g UnorderedGroupBinary) Attrs() ([]string, bool) {
	l, ok := g.L.Attrs()
	if !ok {
		return nil, false
	}
	return unionAttrs(l, []string{g.G}), true
}
