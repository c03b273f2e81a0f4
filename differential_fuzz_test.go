package nalquery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/qgen"
	"nalquery/internal/value"
)

// The generated-query differential oracle: every query the grammar generator
// produces and the compiler accepts must yield byte-identical output from
// every plan alternative, on both the slot engine and the reference (map)
// engine, whether consumed as serialized XML or as typed items. Any
// divergence or panic fails with a one-line reproducer (seed + index +
// query text) for triage; typed compile rejections are fine and counted.
//
// NALQUERY_QGEN_SEED and NALQUERY_QGEN_COUNT override the sweep's seed and
// size — the knobs `make oracle` uses for the pinned CI sweep and a
// triager uses to replay a reported seed.

const (
	defaultSweepSeed  = 20240808
	defaultSweepCount = 250
)

func sweepParams(t *testing.T) (seed int64, count int) {
	seed, count = defaultSweepSeed, defaultSweepCount
	if testing.Short() {
		count = 40
	}
	if s := os.Getenv("NALQUERY_QGEN_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("NALQUERY_QGEN_SEED: %v", err)
		}
		seed = v
	}
	if s := os.Getenv("NALQUERY_QGEN_COUNT"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("NALQUERY_QGEN_COUNT: %v", err)
		}
		count = v
	}
	return seed, count
}

// sweepRun executes one prepared query under the given options and returns
// its serialized output plus the run's engine-level counters. Generous
// budgets guard the sweep against a pathological plan materializing without
// bound — on the small sweep documents no correct plan comes near them.
func sweepRun(p *Prepared, opts []RunOption) (string, algebra.Stats, error) {
	res, err := p.Run(context.Background(),
		append([]RunOption{WithMaxTuples(1 << 21), WithMaxMemory(512 << 20)}, opts...)...)
	if err != nil {
		return "", algebra.Stats{}, err
	}
	defer res.Close()
	var sb strings.Builder
	if err := res.WriteXML(&sb); err != nil {
		return "", algebra.Stats{}, err
	}
	return sb.String(), res.actx.Stats, nil
}

// runTyped consumes the run item-by-item (the typed consumption path) and
// returns the concatenated XML of the items, which WriteXML documents as
// its own output contract.
func sweepRunTyped(p *Prepared, opts []RunOption) (string, error) {
	res, err := p.Run(context.Background(),
		append([]RunOption{WithMaxTuples(1 << 21), WithMaxMemory(512 << 20)}, opts...)...)
	if err != nil {
		return "", err
	}
	defer res.Close()
	var sb strings.Builder
	for item := range res.Seq() {
		sb.WriteString(item.XML())
	}
	return sb.String(), res.Err()
}

// TestDifferentialGeneratedQueries is the sweep `make oracle` pins in
// CI: N generated queries, every plan alternative, both engines, both
// consumption modes.
func TestDifferentialGeneratedQueries(t *testing.T) {
	seed, count := sweepParams(t)
	size, apb := qgen.DocSizes()
	eng := NewEngine()
	eng.LoadUseCaseDocuments(size, apb)

	g := qgen.New(qgen.Config{Seed: seed, Externals: true})
	compiled, rejected := 0, 0
	for i := 0; i < count; i++ {
		q := g.Query()
		repro := fmt.Sprintf("seed=%d index=%d query=%q", seed, i, q.Text)
		p, err := eng.Prepare(q.Text)
		if err != nil {
			var pe *ParseError
			var te *TranslateError
			if !errors.As(err, &pe) && !errors.As(err, &te) {
				t.Fatalf("untyped compile rejection %T (%v)\n%s", err, err, repro)
			}
			rejected++
			continue
		}
		compiled++
		var binds []RunOption
		for name, v := range q.Binds {
			binds = append(binds, Bind(name, v))
		}
		var ref string
		for pi, plan := range p.Plans() {
			// There is no fallback to measure: a plan resolves, and then every
			// operator of it — nested sub-plans included — runs on the row
			// engine, or the run is refused.
			if !plan.resolved().OK {
				t.Fatalf("plan %q does not resolve (%s)\n%s", plan.Name, plan.op, repro)
			}
			var slot algebra.Stats
			for _, eng := range []struct {
				name string
				opts []RunOption
			}{
				{"slot", append([]RunOption{WithPlan(plan.Name)}, binds...)},
				{"map", append([]RunOption{WithPlan(plan.Name), WithReferenceEngine()}, binds...)},
			} {
				out, st, err := sweepRun(p, eng.opts)
				if err != nil {
					t.Fatalf("plan %q on %s engine failed: %v\n%s", plan.Name, eng.name, err, repro)
				}
				// Both evaluators do the same work: the same scans, tuples and
				// nested-loop iterations, whichever plan.
				if eng.name == "slot" {
					slot = st
				} else if st != slot {
					t.Fatalf("plan %q: the row engine counted %+v, the reference evaluator %+v\n%s",
						plan.Name, slot, st, repro)
				}
				if pi == 0 && eng.name == "slot" {
					ref = out
				} else if out != ref {
					t.Fatalf("divergence: plan %q on %s engine\n%s\nwant: %q\ngot:  %q",
						plan.Name, eng.name, repro, ref, out)
				}
			}
			typed, err := sweepRunTyped(p, append([]RunOption{WithPlan(plan.Name)}, binds...))
			if err != nil {
				t.Fatalf("plan %q typed consumption failed: %v\n%s", plan.Name, err, repro)
			}
			if typed != ref {
				t.Fatalf("divergence: plan %q typed consumption\n%s\nwant: %q\ngot:  %q",
					plan.Name, typed, ref, repro)
			}
		}
	}
	t.Logf("sweep: %d compiled and executed, %d rejected (typed)", compiled, rejected)
	if compiled < count/2 {
		t.Fatalf("only %d/%d generated queries compiled — the generator drifted outside the supported subset", compiled, count)
	}
}

// TestDifferentialKeySeedIndependence runs the sweep's queries under two
// forced key seeds (value.SetKeySeed), each over documents loaded under it,
// and requires byte-identical transcripts: every plan's name, estimated cost
// and operator tree, and each plan's slot-engine output and counters, budget
// charges included. Keys are numbered in first-occurrence order and
// confirmed by key, never by hash, so nothing a client sees may depend on
// the seed a process draws.
func TestDifferentialKeySeedIndependence(t *testing.T) {
	seed, count := sweepParams(t)
	transcript := func(keySeed uint64) []string {
		defer value.SetKeySeed(value.SetKeySeed(keySeed))
		size, apb := qgen.DocSizes()
		eng := NewEngine()
		eng.LoadUseCaseDocuments(size, apb)
		g := qgen.New(qgen.Config{Seed: seed, Externals: true})
		var lines []string
		for i := 0; i < count; i++ {
			q := g.Query()
			p, err := eng.Prepare(q.Text)
			if err != nil {
				lines = append(lines, fmt.Sprintf("index=%d rejected: %v", i, err))
				continue
			}
			binds := []RunOption(nil)
			for name, v := range q.Binds {
				binds = append(binds, Bind(name, v))
			}
			for _, plan := range p.Plans() {
				out, st, err := sweepRun(p, append([]RunOption{WithPlan(plan.Name)}, binds...))
				lines = append(lines, fmt.Sprintf("index=%d plan=%q cost=%v err=%v stats=%+v\n%s\n%s",
					i, plan.Name, plan.EstimatedCost, err, st, plan.Explain(), out))
			}
		}
		return lines
	}
	a, b := transcript(1), transcript(0x9e3779b97f4a7c15)
	if len(a) != len(b) {
		t.Fatalf("seed=%d: %d transcript entries under one key seed, %d under the other", seed, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed=%d: the key seed changed what a client sees\nunder 1:\n%s\nunder 0x9e3779b97f4a7c15:\n%s", seed, a[i], b[i])
		}
	}
}

// TestDifferentialMutatedQueries drives token-wise corruptions of generated
// queries through the compiler: whatever the mutation produced, the answer
// must be a clean compile or a typed rejection — never a panic (the compile
// backstop turns one into *InternalError, which fails here), never an
// untyped error.
func TestDifferentialMutatedQueries(t *testing.T) {
	seed, count := sweepParams(t)
	size, apb := qgen.DocSizes()
	eng := NewEngine()
	eng.LoadUseCaseDocuments(size, apb)

	g := qgen.New(qgen.Config{Seed: seed, Externals: true})
	rnd := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < count; i++ {
		text := qgen.Mutate(rnd, g.Query().Text)
		repro := fmt.Sprintf("seed=%d index=%d mutated=%q", seed, i, text)
		q, err := eng.Compile(text)
		if err != nil {
			var pe *ParseError
			var te *TranslateError
			if !errors.As(err, &pe) && !errors.As(err, &te) {
				t.Fatalf("untyped rejection %T (%v)\n%s", err, err, repro)
			}
			continue
		}
		// The mutation happened to stay valid: run the best plan briefly so
		// the executor sees it too.
		plan, err := q.Plan("")
		if err != nil {
			continue
		}
		res, err := q.Run(context.Background(),
			WithPlan(plan.Name), WithMaxTuples(1<<18), WithMaxMemory(64<<20))
		if err != nil {
			if errors.Is(err, ErrInternal) {
				t.Fatalf("internal error: %v\n%s", err, repro)
			}
			continue
		}
		var sb strings.Builder
		if err := res.WriteXML(&sb); err != nil && errors.Is(err, ErrInternal) {
			t.Fatalf("internal error during run: %v\n%s", err, repro)
		}
		res.Close()
	}
}
