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
func (q *Query) ExplainCards(name string) ([]CardRow, error) {
	p, err := q.Plan(name)
	if err != nil {
		return nil, err
	}
	withActual := len(q.params) == 0
	var rows []CardRow
	var walk func(op algebra.Op, depth int)
	walk = func(op algebra.Op, depth int) {
		row := CardRow{Depth: depth, Op: op.String(),
			Est: q.model.Plan(op).Card, Actual: -1}
		if withActual {
			row.Actual = countRows(op, q.docs)
		}
		rows = append(rows, row)
		for _, c := range op.Children() {
			walk(c, depth+1)
		}
	}
	walk(p.op, 0)
	return rows, nil
}

// countRows executes an operator subtree and counts its output tuples.
func countRows(op algebra.Op, docs map[string]*dom.Document) int64 {
	p := algebra.OpenPump(op, algebra.NewCtx(docs), nil)
	defer p.Close()
	var n int64
	for p.Step() {
		n++
	}
	return n
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
