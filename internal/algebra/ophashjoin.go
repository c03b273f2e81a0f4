package algebra

import (
	"container/heap"
	"fmt"
	"strings"

	"nalquery/internal/value"
)

// This file implements the order-preserving hash join of Claussen, Kemper
// and Kossmann ("Order-preserving hash joins: Sorting (almost) for free",
// ref. [6] of the paper). The paper cites it as the intended physical
// implementation of the order-preserving join family; its own measurements
// use a Grace hash join plus a sort (see GraceJoin + Sort). The algorithm:
//
//  1. tag every probe-side tuple with its ordinal position (the order key);
//  2. partition both inputs by a hash of the join key, as a Grace join does;
//  3. join the partition pairs one after another — within one partition the
//     output is produced in probe order because probing happens in probe
//     order;
//  4. merge the per-partition outputs by the probe-side ordinal. Each
//     partition's output is already sorted by that ordinal, so restoring the
//     global probe order is a P-way merge — O(N log P) instead of the
//     O(N log N) full sort the Grace+Sort strategy pays. This is the
//     "sorting (almost) for free".
//
// The operator produces exactly the sequence of the definitional
// σp(e1 × e2) and is property-tested against it.

// OPHashJoin is the order-preserving hash join e1 ⋈[A1=A2 ∧ residual] e2 of
// Claussen et al. [6]. LAttrs/RAttrs are the equality key columns; Residual
// is an optional extra predicate on joined tuples.
type OPHashJoin struct {
	L, R   Op
	LAttrs []string
	RAttrs []string
	// Residual is evaluated on each joined tuple after the key match.
	Residual Expr
	// Partitions is an explicit partition count P; values < 2 let the
	// operator size P from the build-side cardinality at evaluation time.
	Partitions int
}

// partitionCount returns the effective partition count for a build side of
// buildCard tuples: an explicit Partitions setting wins; otherwise P grows
// with the build cardinality (one partition per 128 build tuples) and caps
// at 16, so tiny inputs stop paying a 16-way partition plus a 16-way
// merge.
func (j OPHashJoin) partitionCount(buildCard int) int {
	if j.Partitions >= 2 {
		return j.Partitions
	}
	p := 1 + buildCard/128
	if p > 16 {
		p = 16
	}
	return p
}

// opTagged is one joined output tuple tagged with the probe ordinal it
// belongs to, and a running emission index that keeps tuples of the same
// probe tuple in right order through the merge.
type opTagged struct {
	seq   int
	minor int
	t     value.Tuple
}

// opMergeHeap is the P-way merge heap over the partition output streams.
// Streams are compared by the head element's (seq, minor).
type opMergeHeap struct {
	streams [][]opTagged
}

func (h *opMergeHeap) Len() int { return len(h.streams) }
func (h *opMergeHeap) Less(i, k int) bool {
	a, b := h.streams[i][0], h.streams[k][0]
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.minor < b.minor
}
func (h *opMergeHeap) Swap(i, k int) { h.streams[i], h.streams[k] = h.streams[k], h.streams[i] }
func (h *opMergeHeap) Push(x any)    { h.streams = append(h.streams, x.([]opTagged)) }
func (h *opMergeHeap) Pop() any {
	n := len(h.streams)
	s := h.streams[n-1]
	h.streams = h.streams[:n-1]
	return s
}

// Eval implements Op.
func (j OPHashJoin) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	l := j.L.Eval(ctx, env)
	if len(l) == 0 {
		return nil
	}
	r := j.R.Eval(ctx, env)
	ctx.ChargeTuples(TripPartition, l)
	ctx.ChargeTuples(TripPartition, r)
	p := j.partitionCount(len(r))

	// Phase 1+2: tag the probe side with ordinals and partition both inputs
	// by the composite HashKey's hash.
	type tagged struct {
		seq int
		t   value.Tuple
	}
	lParts := make([][]tagged, p)
	for i, t := range l {
		pi := int(tupleHashKey(t, j.LAttrs).Hash() % uint64(p))
		lParts[pi] = append(lParts[pi], tagged{seq: i, t: t})
	}
	rParts := make([][]value.Tuple, p)
	for _, t := range r {
		pi := int(tupleHashKey(t, j.RAttrs).Hash() % uint64(p))
		rParts[pi] = append(rParts[pi], t)
	}

	// Phase 3: join partition pairs; output per partition is in probe order.
	outs := make([][]opTagged, 0, p)
	for pi := 0; pi < p; pi++ {
		if len(lParts[pi]) == 0 || len(rParts[pi]) == 0 {
			continue
		}
		buckets := make(map[value.HashKey]value.TupleSeq, len(rParts[pi]))
		for _, rt := range rParts[pi] {
			k := tupleHashKey(rt, j.RAttrs)
			buckets[k] = append(buckets[k], rt)
		}
		var out []opTagged
		for _, lt := range lParts[pi] {
			minor := 0
			for _, rt := range buckets[tupleHashKey(lt.t, j.LAttrs)] {
				if j.Residual != nil &&
					!value.EffectiveBool(j.Residual.Eval(ctx, env.Concat(lt.t).Concat(rt))) {
					continue
				}
				out = append(out, opTagged{seq: lt.seq, minor: minor, t: lt.t.Concat(rt)})
				minor++
			}
		}
		if len(out) > 0 {
			outs = append(outs, out)
		}
	}

	// Phase 4: P-way merge by probe ordinal.
	if len(outs) == 0 {
		return nil
	}
	if len(outs) == 1 {
		res := make(value.TupleSeq, len(outs[0]))
		for i, x := range outs[0] {
			res[i] = x.t
		}
		return res
	}
	h := &opMergeHeap{streams: outs}
	heap.Init(h)
	var res value.TupleSeq
	for h.Len() > 0 {
		s := h.streams[0]
		res = append(res, s[0].t)
		if len(s) > 1 {
			h.streams[0] = s[1:]
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return res
}

func (j OPHashJoin) String() string {
	return fmt.Sprintf("OPHashJoin[%s=%s]",
		strings.Join(j.LAttrs, ","), strings.Join(j.RAttrs, ","))
}

// Children implements Op.
func (j OPHashJoin) Children() []Op { return []Op{j.L, j.R} }

// MapChildren implements Op.
func (j OPHashJoin) MapChildren(f func(Op) Op) Op { j.L, j.R = f(j.L), f(j.R); return j }

// Exprs implements Op.
func (j OPHashJoin) Exprs() []Expr {
	if j.Residual != nil {
		return []Expr{j.Residual}
	}
	return nil
}

// Attrs implements Op.
func (j OPHashJoin) Attrs() ([]string, bool) {
	l, ok1 := j.L.Attrs()
	r, ok2 := j.R.Attrs()
	if !ok1 || !ok2 {
		return nil, false
	}
	return unionAttrs(l, r), true
}
