package nalquery

import (
	"bytes"
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/qgen"
	"nalquery/internal/xmlgen"
)

// schemaString renders a resolved schema canonically: attribute names in
// slot order and the nested inner layouts recursively. ("native=true" dates
// from when a resolved operator could still be non-native; the pinned sums
// below were taken over this rendering.)
func schemaString(sc algebra.Schema, ok bool) string {
	if !ok {
		return "unresolved"
	}
	var inner func(in *algebra.Inner) string
	inner = func(in *algebra.Inner) string {
		if in.Lay == nil {
			return "?"
		}
		keys := make([]string, 0, len(in.Nested))
		for k := range in.Nested {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s := "[" + strings.Join(in.Lay.Names(), ",")
		for _, k := range keys {
			s += " " + k + ":" + inner(in.Nested[k])
		}
		return s + "]"
	}
	return fmt.Sprintf("native=%v %s", ok, inner(&algebra.Inner{Lay: sc.Lay, Nested: sc.Nested}))
}

// foldResolved checks every node of the plan's resolved tree against the
// schema its subtree resolves to standing alone and folds the schemas, in
// preorder, into h.
func foldResolved(t *testing.T, label string, h hash.Hash, n *algebra.Node) {
	t.Helper()
	got := schemaString(n.Schema, n.OK)
	if want := schemaString(algebra.ResolveSchema(n.Op)); got != want {
		t.Errorf("%s: node %s carries %s, its subtree alone resolves to %s", label, n.Op, got, want)
	}
	fmt.Fprintf(h, "%s\x00%s\x00", n.Op, got)
	if len(n.Kids) != len(n.Op.Children()) {
		t.Fatalf("%s: node %s has %d kids for %d inputs", label, n.Op, len(n.Kids), len(n.Op.Children()))
	}
	for _, k := range n.Kids {
		foldResolved(t, label, h, k)
	}
}

// TestResolvedTreeMatchesPerSubtreeResolution: for every plan of every paper
// query and of a generated sample, each node of the once-resolved tree
// carries exactly the schema the per-level resolver derived for its subtree
// — pinned to the sums read while every opener still resolved its own
// inputs.
func TestResolvedTreeMatchesPerSubtreeResolution(t *testing.T) {
	size, apb := qgen.DocSizes()
	eng := NewEngine()
	eng.LoadUseCaseDocuments(size, apb)
	eng.LoadDBLPDocument(size)

	sum := func(label, text string) (uint64, bool) {
		q, err := eng.Compile(text)
		if err != nil {
			return 0, false
		}
		h := fnv.New64a()
		for _, p := range q.Plans() {
			foldResolved(t, label+"/"+p.Name, h, p.resolved())
		}
		return h.Sum64(), true
	}
	for label, want := range map[string]uint64{
		"q1": 0x366d4fb99c3825eb, "q1dblp": 0x5862a325f497d938,
		"q2": 0x72b241fa7321ec, "q3": 0xc66547bc99a38050,
		"q4": 0x6b620b0ff54b5e49, "q5": 0xa3b09a6152f4dd4f,
		"q6": 0xf2e92844360a55a9,
	} {
		// unordered(Q) resolves to exactly Q's trees.
		for _, wrap := range []string{"%s", "unordered(%s)"} {
			if got, ok := sum(label, fmt.Sprintf(wrap, PaperQueries[label])); !ok || got != want {
				t.Errorf("%s in %q: resolved schemas sum to %#x (compiled: %v), pinned %#x", label, wrap, got, ok, want)
			}
		}
	}

	const seed, count, pinned = 20240808, 300, uint64(0xd4ade03efb1e194b)
	g := qgen.New(qgen.Config{Seed: seed, Externals: true})
	h := fnv.New64a()
	for i := 0; i < count; i++ {
		if got, ok := sum(fmt.Sprintf("seed=%d index=%d", seed, i), g.Query().Text); ok {
			fmt.Fprintf(h, "%016x", got)
		}
	}
	if got := h.Sum64(); got != pinned {
		t.Errorf("seed=%d, %d queries: resolved schemas sum to %#x, pinned %#x", seed, count, got, pinned)
	}
}

const (
	probeByTitle = `
declare variable $t external;
let $d := doc("bib.xml")
for $b in $d//book
where $b/title = $t
return $b`
	probeByYear = `
declare variable $y external;
let $d := doc("bib.xml")
for $b in $d//book
where $b/@year = $y
return $b/title`
)

// TestPreparedRunAllocBudget is the allocation gate of the serving hot path:
// one Run and WriteXML of a prepared index probe over 5000 books. A plan is
// typed once, on its first run, and a path that selects one node is that
// node (byyear returns a few hundred titles, each of which was a boxed
// one-member sequence: 774 allocations a run). The ceilings sit between what
// a run costs now (16 and 61) and what it would cost if every run re-resolved
// the plan at every level again (some 55 and 95 more).
func TestPreparedRunAllocBudget(t *testing.T) {
	eng := NewEngine()
	eng.LoadDocument(xmlgen.Bib(xmlgen.DefaultConfig(5000)))
	for _, c := range []struct {
		name, text string
		bind       RunOption
		ceiling    float64
	}{
		{"bytitle", probeByTitle, Bind("t", "Title 7"), 40},
		{"byyear", probeByYear, Bind("y", 1995), 120},
	} {
		p, err := eng.Prepare(c.text)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := testing.AllocsPerRun(20, func() {
			res, err := p.Run(context.Background(), c.bind)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			defer res.Close()
			if err := res.WriteXML(io.Discard); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocations per run, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// TestConcurrentFirstRunsShareOneResolvedTree: for every plan of every paper
// query, sixteen goroutines take a fresh Prepared through the plan's first
// run at once. The plan's tree is built once — its openers and what they
// derived at resolve time with it — and read by all of them; every run must
// serialize the same bytes (and the race detector must stay quiet — `make
// race-test`).
func TestConcurrentFirstRunsShareOneResolvedTree(t *testing.T) {
	eng := runEngine(60)
	for id, text := range PaperQueries {
		p, err := eng.Prepare(text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, plan := range p.Plans() {
			label := id + "/" + plan.Name
			const runs = 16
			outs := make([]bytes.Buffer, runs)
			errs := make([]error, runs)
			var start, done sync.WaitGroup
			start.Add(1)
			for i := 0; i < runs; i++ {
				done.Add(1)
				go func(i int) {
					defer done.Done()
					start.Wait()
					res, err := p.Run(context.Background(), WithPlan(plan.Name))
					if err != nil {
						errs[i] = err
						return
					}
					defer res.Close()
					errs[i] = res.WriteXML(&outs[i])
				}(i)
			}
			start.Done()
			done.Wait()
			for i := range outs {
				if errs[i] != nil {
					t.Fatalf("%s: run %d: %v", label, i, errs[i])
				}
				if outs[i].Len() == 0 || !bytes.Equal(outs[i].Bytes(), outs[0].Bytes()) {
					t.Fatalf("%s: run %d serialized %d bytes, run 0 %d — first runs disagree", label, i, outs[i].Len(), outs[0].Len())
				}
			}
			if plan.tree.root == nil {
				t.Errorf("%s: the plan has no resolved tree after %d runs", label, runs)
			}
		}
	}
}
