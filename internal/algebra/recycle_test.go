package algebra

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"nalquery/internal/value"
)

// TestRecycledGroupArrayNeverAliasesPayloads: a Γ, Γ-self or binary Γ gives
// its group array back to the node's spare box on Close, and the next open
// refills it, so no payload may share memory with it. Here each grouping
// applies ΠA over all member attributes in a nested plan opened once per
// outer row, a Sort holds all the outer rows — and with them every open's
// payloads — before µD reads any, and the resolved tree is run again and
// again, from several goroutines and beside runs held open part-read. Every
// run must give what the definitional evaluator gives.
func TestRecycledGroupArrayNeverAliasesPayloads(t *testing.T) {
	ints := func(n int) value.Seq {
		s := make(value.Seq, n)
		for i := range s {
			s[i] = value.Int(int64(i + 1))
		}
		return s
	}
	scan := func(attr string, n int) Op { return UnnestMap{In: Singleton{}, Attr: attr, E: ConstVal{V: ints(n)}} }
	// The rows (y, z), y ≥ the outer x: what the nested plans group.
	members := Select{In: UnnestMap{In: scan("y", 5), Attr: "z", E: ConstVal{V: ints(2)}},
		Pred: cmp(Var{Name: "y"}, value.CmpGe, Var{Name: "x"})}
	all := func(attrs ...string) SeqFunc { return SFProject{Attrs: attrs} }
	// nested applies ΠA over all of sub's attributes to it per outer row.
	nested := func(sub Op, attrs ...string) Op {
		outer := Map{In: scan("x", 4), Attr: "p", E: NestedApply{Plan: sub, F: all(attrs...)}}
		sorted := Sort{In: outer, By: []string{"x"}, Dirs: []bool{true}}
		return UnnestDistinct{In: UnnestDistinct{In: sorted, Attr: "p"}, Attr: "g"}
	}
	for name, plan := range map[string]Op{
		"Γ":        nested(GroupUnary{In: members, G: "g", By: []string{"z"}, Theta: value.CmpEq, F: all("y", "z")}, "g", "z"),
		"Γ-self":   nested(GroupSelf{In: members, G: "g", By: []string{"z"}, F: all("y", "z")}, "g", "y", "z"),
		"binary Γ": nested(GroupBinary{L: scan("w", 2), R: members, G: "g", LAttrs: []string{"w"}, RAttrs: []string{"z"}, Theta: value.CmpEq, F: all("y", "z")}, "g", "w"),
	} {
		want := plan.Eval(NewCtx(nil), nil)
		if len(want) == 0 {
			t.Fatalf("%s: the plan gives no rows", name)
		}
		root := Resolve(plan)
		if !root.OK {
			t.Fatalf("%s: %s does not resolve", name, root.unresolved().Op)
		}
		check := func(what string, rows []value.Row) bool {
			got := make(value.TupleSeq, len(rows))
			for i, r := range rows {
				got[i] = r.Tuple()
			}
			if !value.TupleSeqEqual(want, got) {
				t.Errorf("%s, %s:\n got %.400s\nwant %.400s", name, what, got, want)
				return false
			}
			return true
		}

		held := root.open(NewCtx(nil), nil)
		first, _ := held.Next()
		check("a run beside a run held open", root.rows(NewCtx(nil), nil, nil))
		rest := drainRows(NewCtx(nil), TripBuild, held, []value.Row{first})
		check("a run read after a later run", rest)

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if !check("concurrent runs", root.rows(NewCtx(nil), nil, nil)) {
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestReleaseKeepsMemoryInProportion: what a breaker gives back follows the
// open that gives it — a run over a large input followed by runs over small
// ones does not keep the large input's arrays, and the key table it would
// clear on every open, parked for good. Small boxes are kept whatever their
// open used.
func TestReleaseKeepsMemoryInProportion(t *testing.T) {
	held := func(rows int) *workMem {
		n := new(Node)
		m := &workMem{node: n, rows: make([]value.Row, rows, 4*keepRows)}
		m.b.ids.Reset(1)
		m.release()
		return n.spare.Load()
	}
	if m := held(keepRows); cap(m.rows) != 4*keepRows || cap(m.b.ids.Slots()) == 0 {
		t.Errorf("a box whose open filled a quarter of it kept %d rows, key table %v", cap(m.rows), cap(m.b.ids.Slots()) != 0)
	}
	if m := held(keepRows - 1); cap(m.rows) != 0 || cap(m.b.ids.Slots()) != 0 {
		t.Errorf("a box whose open filled under a quarter of it kept %d rows, key table %v", cap(m.rows), cap(m.b.ids.Slots()) != 0)
	}
	n := new(Node)
	m := &workMem{node: n, rows: make([]value.Row, 0, keepRows)}
	m.release()
	if m := n.spare.Load(); cap(m.rows) != keepRows {
		t.Errorf("a small box kept %d rows, want all %d", cap(m.rows), keepRows)
	}
}

// TestParkedMemoryLivesWithItsNode: a breaker's spare working memory belongs
// to its node. (a) A collection does not take it from a plan that is still
// held: the run after several collections allocates what a warm run does.
// (b) It goes with the plan: once the resolved tree is dropped, the spare is
// freed by the next collection. (c) Holding it costs a Node nothing: the
// count of opens fills the padding after OK, and a Node stays twelve words.
func TestParkedMemoryLivesWithItsNode(t *testing.T) {
	vals := make(value.Seq, 4000)
	for i := range vals {
		vals[i] = value.Int(int64(len(vals) - i))
	}
	sorted := Sort{In: UnnestMap{In: Singleton{}, Attr: "x", E: ConstVal{V: vals}}, By: []string{"x"}, Dirs: []bool{true}}
	root := Resolve(sorted)
	if !root.OK {
		t.Fatalf("%s does not resolve", root.unresolved().Op)
	}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if got := len(root.rows(NewCtx(nil), nil, nil)); got != len(vals) {
			t.Fatalf("the sort gives %d rows, want %d", got, len(vals))
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var warm uint64
	for i := 0; i < 5; i++ {
		warm = run()
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
	if got := run(); got > warm+warm/10 {
		t.Errorf("(a) the run after three collections allocates %d B, a warm run %d B", got, warm)
	}

	m := root.spare.Load()
	if m == nil {
		t.Fatal("(b) the sort holds no spare after seven runs")
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(m, func(*workMem) { close(freed) })
	m, root = nil, nil
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Error("(b) the spare of a dropped plan outlives a collection")
	}

	if unsafe.Sizeof(uintptr(0)) == 8 {
		if got := unsafe.Sizeof(Node{}); got != 96 {
			t.Errorf("(c) a Node is %d bytes, want 96", got)
		}
	}
}
