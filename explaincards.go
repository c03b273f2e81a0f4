package nalquery

import (
	"fmt"
	"strings"

	"nalquery/internal/algebra"
	"nalquery/internal/dom"
)

// CardRow is one operator of a plan with its estimated and measured output
// cardinality — the explain-analyze view of the cost model's quality.
type CardRow struct {
	// Depth is the operator's depth in the plan tree (0 = root).
	Depth int
	// Op is the operator's display form.
	Op string
	// Est is the cost model's estimated output cardinality.
	Est float64
	// Actual is the measured output cardinality, or -1 when the plan was
	// not executed (queries with unbound external variables).
	Actual int64
}

// ExplainCards walks the named plan ("" = lowest estimated cost) and
// reports, per operator, the cost model's estimated output cardinality next
// to the actual cardinality measured by executing the operator's subtree
// over the compile-time document snapshot. Queries with external variables
// report estimates only (Actual = -1): their plans cannot run unbound.
//
// Nested subscript plans are not expanded — they evaluate once per outer
// tuple, so a single actual-vs-estimated pair would be meaningless.
//
// Measuring executes the plan, so ExplainCards fails the way Run does: an
// evaluator panic surfaces as a typed *InternalError, never as a panic.
func (q *Query) ExplainCards(name string) (rows []CardRow, err error) {
	p, err := q.Plan(name)
	if err != nil {
		return nil, err
	}
	defer func() {
		if v := recover(); v != nil {
			rows, err = nil, runPanicError(q.Text, p.Name, v)
		}
	}()
	withActual := len(q.params) == 0
	var walk func(n *algebra.Node, depth int)
	walk = func(n *algebra.Node, depth int) {
		row := CardRow{Depth: depth, Op: n.Op.String(),
			Est: q.model.Plan(n.Op).Card, Actual: -1}
		if withActual {
			row.Actual = countRows(n, q.docs)
		}
		rows = append(rows, row)
		for _, k := range n.Kids {
			walk(k, depth+1)
		}
	}
	walk(p.resolved(), 0)
	return rows, nil
}

// countRows executes a resolved operator subtree and counts its output
// tuples.
func countRows(n *algebra.Node, docs map[string]*dom.Document) int64 {
	p := n.Pump(algebra.NewCtx(docs), nil)
	defer p.Close()
	var c int64
	for p.Step() {
		c++
	}
	return c
}

// FormatCards renders ExplainCards rows as an indented table.
func FormatCards(rows []CardRow) string {
	var sb strings.Builder
	for _, r := range rows {
		actual := "-"
		if r.Actual >= 0 {
			actual = fmt.Sprintf("%d", r.Actual)
		}
		fmt.Fprintf(&sb, "%-60s est=%-10.0f actual=%s\n",
			strings.Repeat("  ", r.Depth)+r.Op, r.Est, actual)
	}
	return sb.String()
}
