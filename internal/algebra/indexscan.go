package algebra

import (
	"fmt"
	"slices"

	"nalquery/internal/dom"
	"nalquery/internal/value"
)

// NodeIndex is the execution-time handle of one structural or value index
// (implemented by internal/index; a fake suffices for tests). Its nodes are
// document-order ranks into Doc (dom.Document.Node resolves one). ScanAll
// enumerates the indexed ranks in ascending order. ProbeEq returns, in
// ascending order, the ranks of the nodes whose atomized value equals the
// atomic key, or ok=false when the index has no value layer (the operator
// then filters ScanAll itself, as it does for every other comparison).
// Neither result may be modified.
type NodeIndex interface {
	Doc() *dom.Document
	ScanAll() []int32
	ProbeEq(key value.Value) ([]int32, bool)
}

// IndexScan binds Attr to the nodes of an indexed path instead of
// evaluating a path expression per input tuple — the planner substitutes it
// for Υ[Attr:path] (structural form, Key == nil) or σ(Υ) with a comparison
// predicate (value form, Key != nil): the index is probed with the key and
// only the matching nodes are emitted, hopped up Depth parent levels when
// the predicate path descends below the bound node.
//
// The node list is produced once per open — it does not depend on the input
// tuples (the substitution only fires when the scanned document is bound by
// a constant doc() — so like Υ, the operator emits input × nodes, preserving
// input order with nodes in document order. Key reads no input tuple: the
// planner substitutes constants and external parameters, and a key inside a
// nested plan may read the tuples enclosing it.
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

// ranks produces the scan's node list for the key's value, as ranks into
// the index's document: probe (or enumerate) the index, then hop up to the
// bound ancestors. Counted as one index scan; it is NOT a DocAccess — no
// document traversal runs, which is the point. The result may be the
// index's own list, so it is read, never written.
func (s IndexScan) ranks(ctx *Ctx, doc *dom.Document, key value.Value) []int32 {
	ctx.Stats.IndexScans++
	var ranks []int32
	switch {
	case s.Key == nil:
		ranks = s.Index.ScanAll()
	case s.Cmp == value.CmpEq:
		// The general comparison is existential over the key's atoms: probe
		// each atom and union the matches. One atom's group is ascending
		// already; a union of several is sorted afresh.
		atoms := value.Atomize(key)
		for _, atom := range atoms {
			part, ok := s.Index.ProbeEq(atom)
			if !ok {
				ranks = filterScan(s.Index, doc, key, s.Cmp)
				break
			}
			if len(atoms) == 1 {
				ranks = part
			} else {
				ranks = append(ranks, part...)
			}
		}
		if len(atoms) > 1 {
			ranks = sortDedupe(ranks)
		}
	default:
		// ∃-≠ is not the complement of ∃-=, and an ordered comparison has no
		// probe: filter the node list with the same general comparison σ
		// would run, existential over the key's atoms.
		ranks = filterScan(s.Index, doc, key, s.Cmp)
	}
	if s.Depth > 0 && len(ranks) > 0 {
		up := make([]int32, 0, len(ranks))
		for _, r := range ranks {
			n := doc.Node(int(r))
			for i := 0; i < s.Depth && n != nil; i++ {
				n = n.Parent()
			}
			if n != nil {
				up = append(up, int32(n.Order()))
			}
		}
		ranks = sortDedupe(up)
	}
	return ranks
}

// filterScan is the always-correct fallback: the full node list filtered
// with the exact comparison the substituted σ predicate would evaluate.
func filterScan(ix NodeIndex, doc *dom.Document, key value.Value, op value.CmpOp) []int32 {
	var out []int32
	for _, r := range ix.ScanAll() {
		if value.GeneralCompare(value.NodeVal{Node: doc.Node(int(r))}, key, op) {
			out = append(out, r)
		}
	}
	return out
}

// sortDedupe sorts ranks the caller owns into document order and drops
// repeats.
func sortDedupe(ranks []int32) []int32 {
	slices.Sort(ranks)
	return slices.Compact(ranks)
}

// Eval implements Op (the definitional evaluator).
func (s IndexScan) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	var key value.Value
	if s.Key != nil {
		key = s.Key.Eval(ctx, env)
	}
	doc := s.Index.Doc()
	ranks := s.ranks(ctx, doc, key)
	in := s.In.Eval(ctx, env)
	var out value.TupleSeq
	for _, t := range in {
		if ctx.Cancelled() {
			break
		}
		for _, r := range ranks {
			nt := t.Copy()
			nt[s.Attr] = value.NodeVal{Node: doc.Node(int(r))}
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

// rowIndexScanIter is the slot-native iterator of IndexScan: the rank list
// is produced once at open, from the compiled key, then emitted per input
// row like Υ's item loop.
type rowIndexScanIter struct {
	in    RowIter
	lay   *value.Layout
	room  int
	slot  int
	doc   *dom.Document
	ranks []int32
	frame

	cur  value.Row
	pos  int
	slab rowSlab
}

func (s *rowIndexScanIter) Next() (value.Row, bool) {
	for {
		if s.ctx.Cancelled() {
			return value.Row{}, false
		}
		if s.pos < len(s.ranks) {
			r := s.slab.extend(s.lay, s.cur, s.room, len(s.ranks)-s.pos)
			r.Vals[s.slot] = value.NodeVal{Node: s.doc.Node(int(s.ranks[s.pos]))}
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
