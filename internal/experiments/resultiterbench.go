package experiments

import (
	"context"
	"io"

	nalquery "nalquery"
)

// The resultiter benchmark family pins the cost of the public Results
// surface the way the joins family pins the partitioned operators: full
// serialization through Results.WriteXML, typed item consumption (Next loop, no serialization), and the
// serialization path under a live cancellable context — the overhead of
// the engine's cancellation guards, which must stay within noise of the
// uncancellable run.

// ResultIterBenchTargets measures the Run/Results consumption modes over
// the Q1 grouping workload at each size.
func ResultIterBenchTargets(sizes []int) ([]BenchTarget, error) {
	var out []BenchTarget
	for _, size := range sizes {
		eng := nalquery.NewEngine()
		eng.LoadUseCaseDocuments(size, 2)
		q, err := eng.Compile(nalquery.QueryQ1Grouping)
		if err != nil {
			return nil, err
		}
		out = append(out,
			BenchTarget{
				Experiment: "resultiter", Plan: "writexml", Size: size,
				Run: func() error {
					res, err := q.Run(context.Background())
					if err != nil {
						return err
					}
					if err := res.WriteXML(io.Discard); err != nil {
						return err
					}
					return res.Close()
				},
			},
			BenchTarget{
				Experiment: "resultiter", Plan: "typed-items", Size: size,
				Run: func() error {
					res, err := q.Run(context.Background())
					if err != nil {
						return err
					}
					for {
						if _, ok := res.Next(); !ok {
							break
						}
					}
					if err := res.Err(); err != nil {
						return err
					}
					return res.Close()
				},
			},
			BenchTarget{
				Experiment: "resultiter", Plan: "cancellable-writexml", Size: size,
				Run: func() error {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					res, err := q.Run(ctx)
					if err != nil {
						return err
					}
					if err := res.WriteXML(io.Discard); err != nil {
						return err
					}
					return res.Close()
				},
			},
		)
	}
	return out, nil
}
