package nalquery

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// TestRecycledMemoryNeverAliasesLiveValues: the pipeline breakers of a
// prepared plan take their working memory from their nodes' spare boxes and
// give it back when their iterators close, so runs of one plan reuse each
// other's drain buffers, key tables and row arrays. What goes back must be
// what no consumer can still reach: runs held open and unread while later
// runs open and close the same breakers, and runs from several goroutines at
// once, all print what the plan prints on a fresh engine. (No compiled plan
// has a Γ whose payloads wrap its group array; TestRecycledGroupArrayNeverAliasesPayloads
// in internal/algebra holds that case.)
func TestRecycledMemoryNeverAliasesLiveValues(t *testing.T) {
	const size = 60
	eng, fresh := runEngine(size), runEngine(size)
	for _, c := range []struct{ id, plan string }{
		{"q1", "group Ξ"}, {"q1dblp", "outer join"}, {"q2", "grouping"}, {"q4", "grouping"},
	} {
		q, err := fresh.Compile(PaperQueries[c.id])
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		want, _, err := execute(q, c.plan)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.id, c.plan, err)
		}
		p, err := eng.Prepare(PaperQueries[c.id])
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		check := func(what, got string, err error) bool {
			if err != nil {
				t.Errorf("%s/%s, %s: %v", c.id, c.plan, what, err)
				return false
			}
			if got != want {
				t.Errorf("%s/%s, %s: prints\n%.300s\nwant (a fresh engine)\n%.300s", c.id, c.plan, what, got, want)
				return false
			}
			return true
		}

		var held []*Results
		for i := 0; i < 3; i++ {
			res, err := p.Run(context.Background(), WithPlan(c.plan))
			if err != nil {
				t.Fatalf("%s/%s: %v", c.id, c.plan, err)
			}
			held = append(held, res)
			got, _, err := execute(p, c.plan)
			check("a run beside runs held open", got, err)
		}
		for i := len(held) - 1; i >= 0; i-- {
			var sb strings.Builder
			err := held[i].WriteXML(&sb)
			check("a run read after later runs", sb.String(), err)
			held[i].Close()
		}

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					if got, _, err := execute(p, c.plan); !check("concurrent runs", got, err) {
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
