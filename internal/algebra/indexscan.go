package algebra

import (
	"fmt"

	"nalquery/internal/dom"
	"nalquery/internal/value"
)

// NodeIndex is the execution-time handle of one structural or value index
// (implemented by internal/index; a fake suffices for tests). ScanAll
// enumerates the indexed nodes in document order. ProbeEq returns the nodes
// whose atomized value equals the atomic key, ProbeCmp those comparing true
// under an ordered operator; both report ok=false when the index has no
// value layer (the operator then filters ScanAll itself).
type NodeIndex interface {
	ScanAll() []*dom.Node
	ProbeEq(key value.Value) ([]*dom.Node, bool)
	ProbeCmp(op value.CmpOp, key value.Value) ([]*dom.Node, bool)
}

// IndexScan binds Attr to the nodes of an indexed path instead of
// evaluating a path expression per input tuple — the planner substitutes it
// for Υ[Attr:path] (structural form, Key == nil) or σ(Υ) with a comparison
// predicate (value form, Key != nil): the index is probed with the key and
// only the matching nodes are emitted, hopped up Depth parent levels when
// the predicate path descends below the bound node.
//
// The node list is resolved once per open — it does not depend on the input
// tuples (the substitution only fires when the scanned document is bound by
// a constant doc() — so like Υ, the operator emits input × nodes, preserving
// input order with nodes in document order. Key is restricted to expressions
// without free tuple variables (constants and external parameters).
type IndexScan struct {
	In   Op
	Attr string
	// URI and Path identify the indexed document path(s) — for plan
	// explanation and cost estimation only; Index carries the data.
	URI  string
	Path string
	// Index resolves the node list; it is attached by the planner from the
	// compiling engine's snapshot.
	Index NodeIndex
	// Depth is the number of parent hops from an indexed node up to the
	// node bound to Attr (0: the indexed nodes bind directly).
	Depth int
	// Key, when non-nil, selects the value form: the index is probed with
	// Cmp against Key's atomized value. Key == nil is the structural form
	// (Cmp is meaningless then — CmpEq is the zero value, so nil-ness of
	// Key, not Cmp, distinguishes the forms).
	Cmp value.CmpOp
	Key Expr
	// EstCard is the planner's measured cardinality annotation (matching
	// nodes expected from the probe; scan count for the structural form).
	EstCard float64
}

// resolve produces the scan's node list: probe (or enumerate) the index,
// then hop up to the bound ancestors. Counted as one index scan; it is NOT
// a DocAccess — no document traversal runs, which is the point.
func (s IndexScan) resolve(ctx *Ctx, env value.Tuple) []*dom.Node {
	ctx.Stats.IndexScans++
	var nodes []*dom.Node
	switch {
	case s.Key == nil:
		nodes = s.Index.ScanAll()
	default:
		key := s.Key.Eval(ctx, env)
		switch s.Cmp {
		case value.CmpEq:
			// The general comparison is existential over the key's atoms:
			// probe each atom and union the matches.
			var failed bool
			for _, atom := range value.Atomize(key) {
				part, ok := s.Index.ProbeEq(atom)
				if !ok {
					failed = true
					break
				}
				nodes = append(nodes, part...)
			}
			if failed {
				nodes = filterScan(s.Index, key, s.Cmp)
			} else if len(nodes) > 1 {
				nodes = sortDedupe(nodes)
			}
		case value.CmpNe:
			// ∃-≠ is not the complement of ∃-=: filter the node list with
			// the same general comparison σ would run.
			nodes = filterScan(s.Index, key, s.Cmp)
		default:
			var failed bool
			for _, atom := range value.Atomize(key) {
				part, ok := s.Index.ProbeCmp(s.Cmp, atom)
				if !ok {
					failed = true
					break
				}
				nodes = append(nodes, part...)
			}
			if failed {
				nodes = filterScan(s.Index, key, s.Cmp)
			} else if len(nodes) > 1 {
				nodes = sortDedupe(nodes)
			}
		}
	}
	if s.Depth > 0 && len(nodes) > 0 {
		up := make([]*dom.Node, 0, len(nodes))
		for _, n := range nodes {
			for i := 0; i < s.Depth && n != nil; i++ {
				n = n.Parent()
			}
			if n != nil {
				up = append(up, n)
			}
		}
		nodes = sortDedupe(up)
	}
	return nodes
}

// filterScan is the always-correct fallback: the full node list filtered
// with the exact comparison the substituted σ predicate would evaluate.
func filterScan(ix NodeIndex, key value.Value, op value.CmpOp) []*dom.Node {
	var out []*dom.Node
	for _, n := range ix.ScanAll() {
		if value.GeneralCompare(value.NodeVal{Node: n}, key, op) {
			out = append(out, n)
		}
	}
	return out
}

func sortDedupe(nodes []*dom.Node) []*dom.Node {
	dom.SortDocOrder(nodes)
	out := nodes[:1]
	for _, n := range nodes[1:] {
		if n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}

// Eval implements Op (the definitional evaluator).
func (s IndexScan) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	nodes := s.resolve(ctx, env)
	in := s.In.Eval(ctx, env)
	var out value.TupleSeq
	for _, t := range in {
		if ctx.Cancelled() {
			break
		}
		for _, n := range nodes {
			nt := t.Copy()
			nt[s.Attr] = value.NodeVal{Node: n}
			ctx.ChargeTuple(TripScan, nt)
			out = append(out, nt)
		}
	}
	ctx.Stats.Tuples += int64(len(out))
	return out
}

func (s IndexScan) String() string {
	if s.Key == nil {
		return fmt.Sprintf("IdxScan[%s:%s%s]", s.Attr, s.URI, s.Path)
	}
	return fmt.Sprintf("IdxScan[%s:%s%s %s %s ↑%d]",
		s.Attr, s.URI, s.Path, s.Cmp, s.Key.String(), s.Depth)
}

// Children implements Op.
func (s IndexScan) Children() []Op { return []Op{s.In} }

// MapChildren implements Op.
func (s IndexScan) MapChildren(f func(Op) Op) Op { s.In = f(s.In); return s }

// Exprs implements Op.
func (s IndexScan) Exprs() []Expr {
	if s.Key == nil {
		return nil
	}
	return []Expr{s.Key}
}

// Attrs implements Op.
func (s IndexScan) Attrs() ([]string, bool) {
	in, ok := s.In.Attrs()
	if !ok {
		return nil, false
	}
	return unionAttrs(in, []string{s.Attr}), true
}

// rowIndexScanIter is the slot-native iterator of IndexScan: the node list
// is resolved once at open, then emitted per input row like Υ's item loop.
type rowIndexScanIter struct {
	in    RowIter
	lay   *value.Layout
	slot  int
	nodes []*dom.Node
	ctx   *Ctx

	cur  value.Row
	pos  int
	slab rowSlab
}

func (s *rowIndexScanIter) Next() (value.Row, bool) {
	for {
		if s.ctx.Cancelled() {
			return value.Row{}, false
		}
		if s.pos < len(s.nodes) {
			r := s.slab.extend(s.lay, s.cur, len(s.nodes)-s.pos)
			r.Vals[s.slot] = value.NodeVal{Node: s.nodes[s.pos]}
			s.pos++
			s.ctx.Stats.Tuples++
			s.ctx.ChargeRow(TripScan, r)
			return r, true
		}
		r, ok := s.in.Next()
		if !ok {
			return value.Row{}, false
		}
		s.cur = r
		s.pos = 0
	}
}

func (s *rowIndexScanIter) Close() { s.in.Close() }
