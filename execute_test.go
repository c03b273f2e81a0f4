package nalquery

import (
	"context"
	"strings"
)

// execute runs the named plan ("" = most optimized) to completion and
// returns its serialized result with the run's final counters: Run +
// WriteXML, the shape most tests compare plans in.
func execute(q *Query, plan string, opts ...RunOption) (string, Stats, error) {
	res, err := q.Run(context.Background(), append(opts, WithPlan(plan))...)
	if err != nil {
		return "", Stats{}, err
	}
	var sb strings.Builder
	if err := res.WriteXML(&sb); err != nil {
		return "", Stats{}, err
	}
	return sb.String(), res.Stats(), nil
}
