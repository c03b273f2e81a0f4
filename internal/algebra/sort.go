package algebra

import (
	"fmt"
	"sort"
	"strings"

	"nalquery/internal/value"
)

// The operators in this file implement the physical alternative the paper
// mentions for restoring order (Sec. 2): "Currently, we have not
// implemented [the order-preserving hash join] but use a Grace-Hash-Join
// instead with a subsequent sorting operator to restore order." The default
// join family of this library preserves probe order directly; GraceJoin +
// Sort reproduces the paper's actual implementation for the ablation
// benchmarks.

// AttachSeq extends every input tuple with a sequence number (its ordinal
// position), the sort key a subsequent Sort uses to restore the input
// order after an order-destroying operator.
type AttachSeq struct {
	In   Op
	Attr string
}

// Eval implements Op.
func (a AttachSeq) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := a.In.Eval(ctx, env)
	out := make(value.TupleSeq, len(in))
	for i, t := range in {
		nt := t.Copy()
		nt[a.Attr] = value.Int(int64(i))
		out[i] = nt
	}
	return out
}

func (a AttachSeq) String() string { return fmt.Sprintf("χ#[%s:seq]", a.Attr) }

// Children implements Op.
func (a AttachSeq) Children() []Op { return []Op{a.In} }

// MapChildren implements Op.
func (a AttachSeq) MapChildren(f func(Op) Op) Op { a.In = f(a.In); return a }

// Exprs implements Op.
func (a AttachSeq) Exprs() []Expr { return nil }

// Attrs implements Op.
func (a AttachSeq) Attrs() ([]string, bool) {
	in, ok := a.In.Attrs()
	if !ok {
		return nil, false
	}
	return unionAttrs(in, []string{a.Attr}), true
}

// Sort orders its input stably by the given attributes (atomic comparison:
// numeric when both sides are numeric, else string — consistent with the
// predicate semantics). A stable sort is exactly what the group-detecting Ξ
// requires of its producers (Sec. 2: "this condition can be met by a
// stable(!) sort"). Dirs optionally flips individual keys to descending
// (the order by clause); a nil Dirs sorts every key ascending.
type Sort struct {
	In Op
	By []string
	// Dirs[i] = true sorts By[i] descending. Empty values sort first on
	// ascending keys and last on descending ones.
	Dirs []bool
}

// Eval implements Op.
func (s Sort) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := s.In.Eval(ctx, env)
	ctx.ChargeTuples(TripSort, in)
	out := in.Copy()
	sort.SliceStable(out, func(i, j int) bool {
		return lessTuplesDirs(out[i], out[j], s.By, s.Dirs)
	})
	return out
}

func lessTuples(a, b value.Tuple, by []string) bool {
	return lessTuplesDirs(a, b, by, nil)
}

func lessTuplesDirs(a, b value.Tuple, by []string, dirs []bool) bool {
	for i, k := range by {
		desc := i < len(dirs) && dirs[i]
		av := value.AtomizeSingle(a[k])
		bv := value.AtomizeSingle(b[k])
		switch {
		case av == nil && bv == nil:
			continue
		case av == nil:
			return !desc // empty sorts first ascending, last descending
		case bv == nil:
			return desc
		}
		lt, gt := value.CmpLt, value.CmpGt
		if desc {
			lt, gt = gt, lt
		}
		if value.CompareAtomic(av, bv, lt) {
			return true
		}
		if value.CompareAtomic(av, bv, gt) {
			return false
		}
	}
	return false
}

func (s Sort) String() string {
	parts := make([]string, len(s.By))
	for i, k := range s.By {
		parts[i] = k
		if i < len(s.Dirs) && s.Dirs[i] {
			parts[i] += "↓"
		}
	}
	return "Sort[" + strings.Join(parts, ",") + "]"
}

// Children implements Op.
func (s Sort) Children() []Op { return []Op{s.In} }

// MapChildren implements Op.
func (s Sort) MapChildren(f func(Op) Op) Op { s.In = f(s.In); return s }

// Exprs implements Op.
func (s Sort) Exprs() []Expr { return nil }

// Attrs implements Op.
func (s Sort) Attrs() ([]string, bool) { return s.In.Attrs() }

// GraceJoin is a Grace-style partitioned hash join: both inputs are
// partitioned by the join key, partitions are joined one after another, and
// the output comes in partition order — NOT in probe order. A plan using it
// must restore order afterwards (AttachSeq upstream + Sort downstream),
// which is the paper's stated implementation strategy.
type GraceJoin struct {
	L, R   Op
	LAttrs []string
	RAttrs []string
	// Residual is an optional extra predicate evaluated on joined tuples.
	Residual Expr
}

// Eval implements Op.
func (g GraceJoin) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	l := g.L.Eval(ctx, env)
	if len(l) == 0 {
		return nil
	}
	r := g.R.Eval(ctx, env)
	ctx.ChargeTuples(TripPartition, l)
	ctx.ChargeTuples(TripPartition, r)
	// Partition order: the canonical LessKey order for determinism (a real
	// Grace join's partition order depends on the hash function; any fixed
	// order shows the same effect — it is not the probe order). The slot
	// engine's native GraceJoin iterator uses the same order, so both
	// engines produce identical sequences.
	lKeys, lParts := partitionSorted(l, g.LAttrs)
	rParts := hashBuckets(r, g.RAttrs)
	var out value.TupleSeq
	for _, k := range lKeys {
		rp := rParts[k]
		if len(rp) == 0 {
			continue
		}
		for _, lt := range lParts[k] {
			for _, rt := range rp {
				if g.Residual != nil &&
					!value.EffectiveBool(g.Residual.Eval(ctx, env.Concat(lt).Concat(rt))) {
					continue
				}
				out = append(out, lt.Concat(rt))
			}
		}
	}
	return out
}

func (g GraceJoin) String() string {
	return fmt.Sprintf("GraceJoin[%s=%s]", strings.Join(g.LAttrs, ","), strings.Join(g.RAttrs, ","))
}

// Children implements Op.
func (g GraceJoin) Children() []Op { return []Op{g.L, g.R} }

// MapChildren implements Op.
func (g GraceJoin) MapChildren(f func(Op) Op) Op { g.L, g.R = f(g.L), f(g.R); return g }

// Exprs implements Op.
func (g GraceJoin) Exprs() []Expr {
	if g.Residual != nil {
		return []Expr{g.Residual}
	}
	return nil
}

// Attrs implements Op.
func (g GraceJoin) Attrs() ([]string, bool) {
	l, ok1 := g.L.Attrs()
	r, ok2 := g.R.Attrs()
	if !ok1 || !ok2 {
		return nil, false
	}
	return unionAttrs(l, r), true
}
