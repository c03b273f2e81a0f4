// Package cost implements a simple cardinality-based cost model for NAL
// plans. The paper chooses among alternative unnested plans informally
// ("the most efficient plan typically results from the equivalences with
// the most restrictive conditions attached"); this model makes the choice
// mechanical: nested algebraic expressions multiply their cost by the
// cardinality of the outer sequence, which is exactly why unnesting wins.
//
// Cardinalities derive from the load-time analyzer's per-path statistics
// (internal/stats), from which the element counts by name are read too — no
// model walks a document. Selectivities use fixed textbook defaults. The
// model only needs to rank plans whose costs differ by orders of magnitude,
// so crude is fine. The tests check the ranking, not the clock: the chosen
// plan is never the nested one (TestCostModelPicksUnnested,
// TestDifferentialCostRanking), and measured statistics move a selective
// scan onto its index (TestPlanFlipMeasuredStats).
package cost

import (
	"fmt"
	"strings"

	"nalquery/internal/algebra"
	"nalquery/internal/dom"
	"nalquery/internal/stats"
	"nalquery/internal/xpath"
)

// Model holds the document statistics estimation runs against.
type Model struct {
	// elemCount is the total number of elements with a given name across
	// all documents with statistics, summed from the measured paths ending
	// in that name.
	elemCount map[string]float64
	// total is the element count of those documents.
	total float64
	// stats holds the analyzer's measured per-path profiles keyed by
	// document URI (see internal/stats): the model prices unnest-maps from
	// exact path counts where a path resolves against them, and from the
	// element-name totals otherwise.
	stats map[string]*stats.DocStats
}

// Selectivity defaults.
const (
	selSelect     = 0.5 // generic predicate
	selDistinct   = 0.5 // distinct values fraction
	selGroupKeys  = 0.3 // distinct grouping keys fraction
	nestedPenalty = 1.0 // weight of a nested evaluation per outer tuple
	tupleCost     = 1.0 // cost of producing one tuple
	// Slot-engine per-tuple constants: producing a fresh output row costs
	// slotCost per attribute slot copied (the O(slots) copy that replaced
	// the per-tuple map rebuild), and defaultWidth stands in when an
	// operator's attribute set is unknown. The terms are small relative to
	// tupleCost, so they refine — not reorder — the plan ranking.
	slotCost     = 0.05
	defaultWidth = 4.0
)

// width estimates the slot count of an operator's output rows.
func width(op algebra.Op) float64 {
	if attrs, ok := op.Attrs(); ok {
		return float64(len(attrs))
	}
	return defaultWidth
}

// perTuple is the cost of producing one output row: base cost plus the slot
// copy.
func perTuple(op algebra.Op) float64 {
	return tupleCost + slotCost*width(op)
}

// NewModelStats builds the model from the analyzer's measured per-path
// statistics: the element counts by name are read off them — a path's count
// goes to the name of its last segment. Building it costs the number of
// distinct paths, not the number of nodes. A document without an entry in
// st contributes nothing; the engine analyzes every document it loads, so
// it always passes one entry per document.
func NewModelStats(docs map[string]*dom.Document, st map[string]*stats.DocStats) *Model {
	paths := 0 // bounds the distinct names: growing the map is half the cost
	for _, ds := range st {
		paths += len(ds.Paths)
	}
	m := &Model{elemCount: make(map[string]float64, paths), stats: st}
	for uri := range docs {
		ds := st[uri]
		if ds == nil {
			continue
		}
		m.total += float64(ds.Elements)
		for _, ps := range ds.Paths {
			if name := ps.Path[strings.LastIndexByte(ps.Path, '/')+1:]; !strings.HasPrefix(name, "@") {
				m.elemCount[name] += float64(ps.Count)
			}
		}
	}
	return m
}

// Estimate is the estimated cardinality and cumulative cost of a plan.
type Estimate struct {
	Card float64
	Cost float64
}

// Plan estimates a full operator tree.
func (m *Model) Plan(op algebra.Op) Estimate {
	//nal:opswitch cost
	switch w := op.(type) {
	case algebra.Singleton:
		return Estimate{Card: 1, Cost: 1}
	case algebra.Select:
		in := m.Plan(w.In)
		return Estimate{
			Card: in.Card * selSelect,
			Cost: in.Cost + in.Card*(tupleCost+m.expr(w.Pred)),
		}
	case algebra.Project:
		return m.passThrough(w.In)
	case algebra.ProjectDrop:
		return m.passThrough(w.In)
	case algebra.ProjectRename:
		return m.passThrough(w.In)
	case algebra.Map:
		in := m.Plan(w.In)
		return Estimate{Card: in.Card, Cost: in.Cost + in.Card*(perTuple(op)+m.expr(w.E))}
	case algebra.UnnestMap:
		in := m.Plan(w.In)
		card := m.pathCard(w.E, in.Card)
		return Estimate{Card: card, Cost: in.Cost + in.Card*m.expr(w.E) + card*perTuple(op)}
	case algebra.IndexScan:
		// A probe resolves the node list without touching the document —
		// the cost is the emission itself.
		in := m.Plan(w.In)
		card := maxF(w.EstCard, 1)
		return Estimate{Card: card, Cost: in.Cost + in.Card*tupleCost + card*perTuple(op)}
	case algebra.SemiJoin:
		l, r := m.Plan(w.L), m.Plan(w.R)
		return Estimate{Card: l.Card * selSelect, Cost: l.Cost + r.Cost + (l.Card + r.Card)}
	case algebra.AntiJoin:
		l, r := m.Plan(w.L), m.Plan(w.R)
		return Estimate{Card: l.Card * selSelect, Cost: l.Cost + r.Cost + (l.Card + r.Card)}
	case algebra.OuterJoin:
		l, r := m.Plan(w.L), m.Plan(w.R)
		card := maxF(l.Card, r.Card)
		return Estimate{Card: card, Cost: l.Cost + r.Cost + (l.Card+r.Card)*tupleCost + card*perTuple(op)}
	// The grouping family runs slot-natively with RowSeq payloads: one
	// hash pass over the input plus a slot-rate output term per emitted
	// group row. f reads each member once (ΠA copies its slots into the
	// payload), which the hash pass's per-tuple term stands for, so no
	// per-member term of its own appears.
	case algebra.GroupUnary:
		in := m.Plan(w.In)
		card := in.Card * selGroupKeys
		if w.Theta != 0 { // non-equality θ: key × input scan
			return Estimate{Card: card, Cost: in.Cost + card*in.Card*tupleCost}
		}
		return Estimate{Card: card, Cost: in.Cost + in.Card*tupleCost + card*slotCost*width(op)}
	case algebra.GroupSelf:
		// One hash pass plus a full-width output row per input tuple: the
		// operator annotates in place, so Card is unchanged.
		in := m.Plan(w.In)
		return Estimate{Card: in.Card, Cost: in.Cost + in.Card*tupleCost + in.Card*slotCost*width(op)}
	case algebra.GroupBinary:
		l, r := m.Plan(w.L), m.Plan(w.R)
		if w.Theta != 0 {
			return Estimate{Card: l.Card, Cost: l.Cost + r.Cost + l.Card*r.Card*tupleCost}
		}
		return Estimate{Card: l.Card, Cost: l.Cost + r.Cost + (l.Card + r.Card) + l.Card*slotCost*width(op)}
	case algebra.UnnestDistinct:
		in := m.Plan(w.In)
		card := in.Card * 3
		return Estimate{Card: card, Cost: in.Cost + card*perTuple(op)}
	case algebra.XiSimple:
		in := m.Plan(w.In)
		return Estimate{Card: in.Card, Cost: in.Cost + in.Card*tupleCost}
	case algebra.XiGroup:
		in := m.Plan(w.In)
		return Estimate{Card: in.Card, Cost: in.Cost + in.Card*tupleCost}
	case algebra.Sort:
		in := m.Plan(w.In)
		return Estimate{Card: in.Card, Cost: in.Cost + in.Card*logF(in.Card)*tupleCost}
	default:
		//nal:allow-panic unreachable: make lint's opcomplete check requires a case above for every operator, and every caller runs inside a recover boundary that reports *InternalError
		panic(fmt.Sprintf("cost: no estimate for operator %T", op))
	}
}

func (m *Model) passThrough(in algebra.Op) Estimate {
	e := m.Plan(in)
	return Estimate{Card: e.Card, Cost: e.Cost + e.Card*tupleCost}
}

// expr estimates the per-invocation cost of a subscript expression. Nested
// algebraic expressions cost their full plan — the caller multiplies by the
// outer cardinality, producing the quadratic term unnesting removes.
func (m *Model) expr(e algebra.Expr) float64 {
	// The form's own constant goes before (Call) or after its operands' costs:
	// float addition does not associate, and the estimates are pinned to the bit.
	before, after := 0.0, 0.0
	switch w := e.(type) {
	case nil:
		return 0
	case algebra.NestedApply:
		return nestedPenalty * m.Plan(w.Plan).Cost
	case algebra.ExistsQ:
		return nestedPenalty * (m.Plan(w.Range).Cost + m.expr(w.Pred))
	case algebra.ForallQ:
		return nestedPenalty * (m.Plan(w.Range).Cost + m.expr(w.Pred))
	case algebra.Param:
		// External-variable read: one binding-table index, constant-cheap.
		// Predicates over parameters take the same default selectivities as
		// predicates over literals (selSelect and friends) — the binding is
		// unknown at prepare time, so the model estimates parametrically and
		// the plan choice holds for every run.
		after = 0.05
	case algebra.AndExpr, algebra.OrExpr, algebra.NotExpr:
	case algebra.InExpr, algebra.BindTuples:
		after = 0.5
	case algebra.Call:
		before = 0.2
	case algebra.PathOf, algebra.Doc:
		after = 1
	default:
		after = 0.1
	}
	c := before
	for i := 0; ; i++ {
		sub := e.Child(i)
		if sub == nil {
			return c + after
		}
		c += m.expr(sub)
	}
}

// pathCard estimates the output cardinality of an unnest-map over a path or
// distinct-values expression. The estimate is path-aware: the summed counts
// of the measured absolute paths the expression reaches (from any context
// depth — relative paths apply per-tuple, and the full pipeline reaches
// every occurrence). A path the statistics cannot resolve (a positional
// step) falls back to the total number of elements with its final name.
func (m *Model) pathCard(e algebra.Expr, inCard float64) float64 {
	if p, distinct, ok := finalPath(e); ok {
		n, resolved := 0.0, true
		for _, ds := range m.stats {
			c, ok := ds.SuffixCount(p)
			if !ok {
				resolved = false
				break
			}
			n += c
		}
		if resolved {
			if distinct {
				n *= selDistinct
			}
			return maxF(n, 1)
		}
	}
	name, distinct := finalElemName(e)
	if name == "" {
		return maxF(inCard*2, 1)
	}
	n := m.elemCount[name]
	if n == 0 {
		n = maxF(m.total*0.01, 1)
	}
	if distinct {
		n *= selDistinct
	}
	return maxF(n, 1)
}

func finalElemName(e algebra.Expr) (string, bool) {
	switch w := e.(type) {
	case algebra.PathOf:
		steps := w.Path.Steps
		for i := len(steps) - 1; i >= 0; i-- {
			if steps[i].Name != "" {
				return steps[i].Name, false
			}
		}
		return "", false
	case algebra.Call:
		if w.Fn == "distinct-values" && len(w.Args) == 1 {
			n, _ := finalElemName(w.Args[0])
			return n, true
		}
	case algebra.BindTuples:
		return finalElemName(w.E)
	}
	return "", false
}

// finalPath extracts the path expression an unnest-map scans, through the
// distinct-values and tuple-binding wrappers finalElemName also unwraps.
func finalPath(e algebra.Expr) (xpath.Path, bool, bool) {
	switch w := e.(type) {
	case algebra.PathOf:
		return w.Path, false, true
	case algebra.Call:
		if w.Fn == "distinct-values" && len(w.Args) == 1 {
			p, _, ok := finalPath(w.Args[0])
			return p, true, ok
		}
	case algebra.BindTuples:
		return finalPath(w.E)
	}
	return xpath.Path{}, false, false
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func logF(x float64) float64 {
	// Cheap log2 approximation, enough for a ranking model.
	l := 1.0
	for x > 2 {
		x /= 2
		l++
	}
	return l
}
