package cli

import (
	"context"
	"strings"

	nalquery "nalquery"
)

// RunPlan runs the named plan alternative of q ("" = most optimized) to
// completion and returns its serialized result and execution counters: Run
// + WriteXML into memory, for callers that print or compare whole results
// (the experiment tables and their benchmarks).
func RunPlan(q *nalquery.Query, plan string, opts ...nalquery.RunOption) (string, nalquery.Stats, error) {
	res, err := q.Run(context.Background(), append(opts, nalquery.WithPlan(plan))...)
	if err != nil {
		return "", nalquery.Stats{}, err
	}
	var sb strings.Builder
	if err := res.WriteXML(&sb); err != nil {
		return "", nalquery.Stats{}, err
	}
	return sb.String(), res.Stats(), nil
}
