package algebra

import (
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/race"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

// TestReopenAllocatesOnlyIteratorState opens and drains one resolved tree
// many times — what a nested plan does once per outer tuple — over a plan
// holding ⋈, binary Γ, µD, Π̄ and Sort on three-row scans. An open pays for
// iterator state, compiled subscripts and the rows it produces; the slots,
// layouts, key pairs and splice maps are the resolver's, derived once, and
// so are the compiled subscripts. An open makes 50 allocations; it made 54
// while every open compiled its subscripts again and 85 while it derived the
// slots too, so the ceiling stops either from coming back (a race-detector
// build, which allocates a row chunk twice, is not held to it).
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
	const ceiling = 52
	if got > ceiling && !race.Enabled {
		t.Errorf("%.1f allocations per open, ceiling %d", got, ceiling)
	}
}

// TestReopenNestedPlanCompilesNothing reopens a plan whose χ holds a nested
// plan with ∃ reading the outermost row, e[a] over a path, and f ∘ σp over
// ΠA — the sub-plan is opened once per outer row. Every subscript is compiled
// when the plan is resolved, and each open of the sub-plan pays for its
// iterators, their scratch and its rows, nothing else: 99 allocations per
// open of the plan, where compiling every subscript and building the env ◦ t
// map at every open of the sub-plan made 256.
func TestReopenNestedPlanCompilesNothing(t *testing.T) {
	doc, err := dom.ParseString("<r><k>1</k><k>2</k></r>", "k.xml")
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]*dom.Document{"k.xml": doc}
	scan := func(attr string) Op {
		return UnnestMap{In: Singleton{}, Attr: attr,
			E: ConstVal{V: value.Seq{value.Int(1), value.Int(2), value.Int(3)}}}
	}
	sub := Select{
		In: Map{In: scan("y"), Attr: "ks", E: BindTuples{Attr: "k",
			E: PathOf{Input: Doc{URI: "k.xml"}, Path: xpath.MustParse("//k")}}},
		Pred: ExistsQ{Var: "z", RangeAttr: "w", Range: scan("w"), Pred: eqCmp("z", "x")}}
	plan := Map{In: scan("x"), Attr: "n", E: NestedApply{Plan: sub,
		F: SFFiltered{Pred: cmp(Var{Name: "y"}, value.CmpGe, Var{Name: "x"}), Inner: SFProject{Attrs: []string{"y", "ks"}}}}}
	if want, got := plan.Eval(NewCtx(docs), nil), RunIter(plan, NewCtx(docs)); !value.TupleSeqEqual(want, got) {
		t.Fatalf("the row engine differs from Eval\neval: %.300s\nrows: %.300s", want, got)
	}
	root := Resolve(plan)
	ctx := NewCtx(docs)
	got := testing.AllocsPerRun(100, func() {
		it := root.open(ctx, nil)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		it.Close()
	})
	const ceiling = 115
	if got > ceiling && !race.Enabled {
		t.Errorf("%.1f allocations per open, ceiling %d", got, ceiling)
	}
}
