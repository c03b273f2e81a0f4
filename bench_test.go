// Package nalquery_test contains the benchmark harness that regenerates
// every table and figure of the paper's evaluation (Sec. 5 and Fig. 6).
//
// One benchmark family exists per paper table; within a family, sub-
// benchmarks are keyed by plan alternative, document size and (for Q1)
// authors-per-book. Run
//
//	go test -bench=. -benchmem
//
// for the default measurement points (document sizes 100 and 1000 for the
// quadratic nested plans, up to 10000 for the unnested plans — the nested
// plan at 10000 runs for several minutes, exactly as in the paper, and is
// available through cmd/nalbench -full). The absolute numbers differ from
// the paper's 2003 testbed; the reproduction target is the shape: who wins,
// by what factor, and how plans scale.
package nalquery_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	nalquery "nalquery"
	"nalquery/internal/cli"
	"nalquery/internal/dom"
	"nalquery/internal/experiments"
	"nalquery/internal/xmlgen"
)

// nestedSizeCap keeps the quadratic nested plans — "nested" and its
// "indexed nested" twin — out of the largest measurement point during
// automated bench runs.
const nestedSizeCap = 1000

func benchExperiment(b *testing.B, id string, sizes []int, apbs []int) {
	exp, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	if apbs == nil {
		apbs = []int{0}
	}
	for _, apb := range apbs {
		for _, size := range sizes {
			eng := experiments.NewEngine(exp, size, apb)
			q, err := eng.Compile(exp.Query)
			if err != nil {
				b.Fatalf("compile %s: %v", id, err)
			}
			for _, p := range q.Plans() {
				if strings.HasSuffix(p.Name, "nested") && size > nestedSizeCap {
					continue
				}
				name := fmt.Sprintf("plan=%s/size=%d", p.Name, size)
				if apb > 0 {
					name = fmt.Sprintf("plan=%s/apb=%d/size=%d", p.Name, apb, size)
				}
				plan := p
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, _, err := cli.RunPlan(q, plan.Name); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkQ1Grouping regenerates the Sec. 5.1 table (Query 1.1.9.4):
// nested vs. outer join (Eqv. 4) vs. grouping (Eqv. 5) vs. group Ξ, with 2,
// 5 and 10 authors per book.
func BenchmarkQ1Grouping(b *testing.B) {
	benchExperiment(b, "q1", []int{100, 1000, 10000}, []int{2, 5, 10})
}

// BenchmarkQ1DBLP regenerates the Sec. 5.1 DBLP paragraph: only the
// outer-join plan is admissible (authors without books violate Eqv. 5's
// condition).
func BenchmarkQ1DBLP(b *testing.B) {
	benchExperiment(b, "q1dblp", []int{100, 1000, 10000}, nil)
}

// BenchmarkQ2Aggregation regenerates the Sec. 5.2 table (Query 1.1.9.10):
// nested vs. grouping (Eqv. 3).
func BenchmarkQ2Aggregation(b *testing.B) {
	benchExperiment(b, "q2", []int{100, 1000, 10000}, nil)
}

// BenchmarkQ3Existential regenerates the Sec. 5.3 table (Query 1.1.9.5):
// nested vs. semijoin (Eqv. 6).
func BenchmarkQ3Existential(b *testing.B) {
	benchExperiment(b, "q3", []int{100, 1000, 10000}, nil)
}

// BenchmarkQ4ExistsFunction regenerates the Sec. 5.4 table: nested vs.
// semijoin (Eqv. 6) vs. single-scan grouping.
func BenchmarkQ4ExistsFunction(b *testing.B) {
	benchExperiment(b, "q4", []int{100, 1000, 10000}, nil)
}

// BenchmarkQ5Universal regenerates the Sec. 5.5 table: nested vs.
// anti-semijoin (Eqv. 7) vs. count grouping (Eqv. 9).
func BenchmarkQ5Universal(b *testing.B) {
	benchExperiment(b, "q5", []int{100, 1000, 10000}, nil)
}

// BenchmarkQ6HavingCount regenerates the Sec. 5.6 table (Query 1.4.4.14):
// nested vs. grouping (Eqv. 3).
func BenchmarkQ6HavingCount(b *testing.B) {
	benchExperiment(b, "q6", []int{100, 1000, 10000}, nil)
}

// BenchmarkFig6DocumentSizes regenerates Fig. 6: generation plus
// serialization of the six use-case documents at every measurement point
// (the reported metric is the serialized byte size; see cmd/nalbench -exp
// fig6 for the table itself).
func BenchmarkFig6DocumentSizes(b *testing.B) {
	for _, size := range []int{100, 1000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.Fig6([]int{size}, []int{2, 5, 10})
			}
		})
	}
}

// BenchmarkCompile measures the optimizer itself: parse + normalize +
// translate + unnesting for all plan alternatives of each paper query.
func BenchmarkCompile(b *testing.B) {
	eng := nalquery.NewEngine()
	eng.LoadUseCaseDocuments(100, 2)
	eng.LoadDBLPDocument(100)
	for id, text := range nalquery.PaperQueries {
		query := text
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Compile(query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPaperPlansPrepared is the paper_plans operation of benchmark/ as
// a go test benchmark, one sub-benchmark per statement: the use-case
// documents and dblp.xml at size 5000 loaded from XML text, each paper query
// prepared once, then Run + WriteXML of the cost-chosen plan into a reused
// buffer. The harness has no profile flag; this has go test's:
//
//	go test -run '^$' -bench PaperPlansPrepared -benchtime 20x \
//		-cpuprofile cpu.out -memprofile mem.out -memprofilerate 512 .
func BenchmarkPaperPlansPrepared(b *testing.B) {
	const size = 5000
	cfg := xmlgen.DefaultConfig(size)
	eng := nalquery.NewEngine()
	for _, d := range []*dom.Document{xmlgen.Bib(cfg), xmlgen.Reviews(cfg), xmlgen.Prices(cfg),
		xmlgen.Users(cfg), xmlgen.Items(cfg), xmlgen.Bids(cfg),
		xmlgen.DBLP(xmlgen.DBLPConfig{Seed: cfg.Seed, Publications: size})} {
		if err := eng.LoadXMLString(d.URI, dom.XMLString(d.Root)); err != nil {
			b.Fatal(err)
		}
	}
	var out bytes.Buffer
	for _, id := range []string{"q1", "q1dblp", "q2", "q3", "q4", "q5", "q6"} {
		p, err := eng.Prepare(nalquery.PaperQueries[id])
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out.Reset()
				res, err := p.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				err = res.WriteXML(&out)
				res.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
