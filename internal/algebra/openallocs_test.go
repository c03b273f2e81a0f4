package algebra

import (
	"testing"

	"nalquery/internal/race"
	"nalquery/internal/value"
)

// TestReopenAllocatesOnlyIteratorState opens and drains one resolved tree
// many times — what a nested plan does once per outer tuple — over a plan
// holding ⋈, binary Γ, µD, Π̄ and Sort on three-row scans. An open pays for
// iterator state, compiled subscripts and the rows it produces; the slots,
// layouts, key pairs and splice maps are the resolver's, derived once. The
// ceiling sits halfway between the 54 allocations an open makes now and the
// 85 it made while every open derived them again (a race-detector build,
// which allocates a row chunk twice, is not held to it).
func TestReopenAllocatesOnlyIteratorState(t *testing.T) {
	scan := func(attr string) Op {
		return UnnestMap{In: Singleton{}, Attr: attr,
			E: ConstVal{V: value.Seq{value.Int(1), value.Int(2), value.Int(3)}}}
	}
	join := Join{L: scan("x"), R: scan("y"), Pred: eqCmp("x", "y")}
	grouped := GroupBinary{L: join, R: scan("z"), G: "g", LAttrs: []string{"x"}, RAttrs: []string{"z"},
		Theta: value.CmpEq, F: SFIdent{}}
	plan := Sort{In: ProjectDrop{In: UnnestDistinct{In: grouped, Attr: "g"}, Names: []string{"y"}},
		By: []string{"x"}, Dirs: []bool{true}}
	root := Resolve(plan)
	if !root.OK {
		t.Fatalf("%s does not resolve", root.unresolved().Op)
	}
	ctx := NewCtx(nil)
	var rows int
	got := testing.AllocsPerRun(200, func() {
		it := root.open(ctx, nil)
		for rows = 0; ; rows++ {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		it.Close()
	})
	if rows != 3 {
		t.Fatalf("%d rows, want 3", rows)
	}
	const ceiling = 69
	if got > ceiling && !race.Enabled {
		t.Errorf("%.1f allocations per open, ceiling %d", got, ceiling)
	}
}
