package algebra

import (
	"math"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/race"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

func TestResolveSchemaBasics(t *testing.T) {
	src := UnnestMap{In: Singleton{}, Attr: "x", E: ConstVal{V: value.Seq{value.Int(1)}}}
	sc, ok := ResolveSchema(Select{In: src, Pred: ConstVal{V: value.Bool(true)}})
	if !ok {
		t.Fatalf("select schema: %+v %v", sc, ok)
	}
	if s, found := sc.Lay.Slot("x"); !found || s != 0 {
		t.Fatalf("slot of x: %d %v", s, found)
	}
}

func TestResolveSchemaRenameSwap(t *testing.T) {
	src := Map{In: Map{In: Singleton{}, Attr: "a", E: ConstVal{V: value.Int(1)}},
		Attr: "b", E: ConstVal{V: value.Int(2)}}
	op := ProjectRename{In: src, Pairs: []Rename{{New: "b", Old: "a"}, {New: "a", Old: "b"}}}
	sc, ok := ResolveSchema(op)
	if !ok {
		t.Fatalf("swap schema: %+v %v", sc, ok)
	}
	sa, _ := sc.Lay.Slot("a")
	sb, _ := sc.Lay.Slot("b")
	if sa != 1 || sb != 0 {
		t.Fatalf("swap slots: a=%d b=%d", sa, sb)
	}
}

// TestResolveSchemaNestedTracking: µD over a binary grouping resolves because
// the resolver knows the group attribute's inner layout (the right input's
// schema under f = id).
func TestResolveSchemaNestedTracking(t *testing.T) {
	grouped := GroupBinary{L: relR1(), R: relR2(), G: "g",
		LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpEq, F: SFIdent{}}
	sc, ok := ResolveSchema(native(grouped))
	if !ok || sc.nested("g") == nil {
		t.Fatalf("group schema must track the inner layout: %+v %v", sc, ok)
	}
	mu := UnnestDistinct{In: grouped, Attr: "g"}
	msc, ok := ResolveSchema(native(mu))
	if !ok {
		t.Fatalf("µD over tracked group must resolve: %+v %v", msc, ok)
	}
	for _, a := range []string{"A1", "A2", "B"} {
		if !msc.Lay.Has(a) {
			t.Fatalf("µD layout misses %s: %v", a, msc.Lay.Names())
		}
	}
	if msc.Lay.Has("g") {
		t.Fatalf("µD layout must drop the group attribute")
	}
}

// TestResolveSchemaFallbacks: a hash join resolves structurally to l ◦ r;
// unknown attribute sets do not resolve, and there is nothing to fall back to.
func TestResolveSchemaFallbacks(t *testing.T) {
	j := Join{L: relR1(), R: relR2(), Pred: eqCmp("A1", "A2")}
	sc, ok := ResolveSchema(native(j))
	if !ok {
		t.Fatalf("hash join must resolve: %+v %v", sc, ok)
	}
	for i, a := range []string{"A1", "A2", "B"} {
		if s, found := sc.Lay.Slot(a); !found || s != i {
			t.Fatalf("⋈ concat layout wrong: %v", sc.Lay.Names())
		}
	}
	// µD's attribute set is statically unknown without nested tracking.
	ud := UnnestDistinct{In: constOp{attrs: []string{"a", "g"}}, Attr: "g"}
	if _, ok := ResolveSchema(native(ud)); ok {
		t.Fatalf("µD without inner layout must not resolve")
	}
}

// TestProjectRenameSwap pins the satellite fix: a→b, b→a is a simultaneous
// substitution on both engines, not a sequential clobber.
func TestProjectRenameSwap(t *testing.T) {
	in := constOp{ts: value.TupleSeq{{"a": value.Int(1), "b": value.Int(2), "c": value.Int(3)}},
		attrs: []string{"a", "b", "c"}}
	op := ProjectRename{In: in, Pairs: []Rename{{New: "b", Old: "a"}, {New: "a", Old: "b"}}}
	want := value.Tuple{"a": value.Int(2), "b": value.Int(1), "c": value.Int(3)}

	got := op.Eval(NewCtx(nil), nil)
	if len(got) != 1 || !value.TupleEqual(got[0], want) {
		t.Fatalf("Eval swap: %s, want %s", got, want)
	}
	it := RunIter(native(op), NewCtx(nil))
	if len(it) != 1 || !value.TupleEqual(it[0], want) {
		t.Fatalf("iterator swap: %s, want %s", it, want)
	}

	// Rename chains behave as simultaneous substitution too.
	chain := ProjectRename{In: in, Pairs: []Rename{{New: "b", Old: "a"}, {New: "d", Old: "b"}}}
	wantChain := value.Tuple{"b": value.Int(1), "d": value.Int(2), "c": value.Int(3)}
	gotChain := chain.Eval(NewCtx(nil), nil)
	if len(gotChain) != 1 || !value.TupleEqual(gotChain[0], wantChain) {
		t.Fatalf("Eval chain: %s, want %s", gotChain, wantChain)
	}
	itChain := RunIter(native(chain), NewCtx(nil))
	if len(itChain) != 1 || !value.TupleEqual(itChain[0], wantChain) {
		t.Fatalf("iterator chain: %s, want %s", itChain, wantChain)
	}
}

// TestStreamingAllocsPerTuple is the allocation regression gate of the slot
// engine, operator by operator: what each one adds to its input's
// allocations, per tuple it emits. σ passes rows through; the producing
// operators cut their rows from chunks (rowSlab) sized by the stream, so each
// adds a chunk per slabMaxRows rows and nothing per row (whatever Υ's fan-out
// per input row: TestUnnestMapChunksFollowTheStream); a single-step path
// costs its result sequence and that sequence's box; e[a] over a path and ΠA
// cut their payload backings from a chunk too and cost the payload's box;
// f ∘ σp keeps nothing per group. A race-detector build allocates a chunk
// twice (it does not fold slices.Grow's make), so there each slab an operator
// cuts from may add one more allocation per chunk.
func TestStreamingAllocsPerTuple(t *testing.T) {
	const n = 2000
	seq := make(value.Seq, n)
	var xml strings.Builder
	xml.WriteString("<bib>")
	for i := range seq {
		seq[i] = value.Int(int64(i))
		xml.WriteString("<book><title>t</title></book>")
	}
	xml.WriteString("</bib>")
	doc, err := dom.ParseString(xml.String(), "bib.xml")
	if err != nil {
		t.Fatal(err)
	}
	books := &fakeIndex{nodes: doc.Root.Descendants("book", nil)}

	scan := func(attr string) Op { return UnnestMap{In: Singleton{}, Attr: attr, E: ConstVal{V: seq}} }
	src := scan("x")
	gtNeg := CmpExpr{L: Var{Name: "x"}, R: ConstVal{V: value.Int(-1)}, Op: value.CmpGt}
	groups := GroupUnary{In: src, G: "g", By: []string{"x"}, Theta: value.CmpEq, F: SFIdent{}}
	sel := Select{In: src, Pred: gtNeg}
	idx := IndexScan{In: Singleton{}, Attr: "b", Index: books}
	right := ProjectRename{In: scan("y"), Pairs: []Rename{{New: "z", Old: "y"}}}

	total := func(op Op) float64 {
		return testing.AllocsPerRun(5, func() { DrainIter(op, NewCtx(nil), nil) })
	}
	for _, tc := range []struct {
		name   string
		op     Op
		inputs []Op
		max    float64 // allocations per emitted tuple on top of the inputs
		slabs  int     // rowSlabs it cuts chunks from
	}{
		{"Υ", src, []Op{Singleton{}}, 0.1, 1},
		{"σ", sel, []Op{src}, 0.1, 0},
		{"Π", Project{In: sel, Names: []string{"x"}}, []Op{sel}, 0.1, 1},
		{"χ", Map{In: src, Attr: "y", E: Var{Name: "x"}}, []Op{src}, 0.1, 1},
		{"IndexScan", idx, []Op{Singleton{}}, 0.1, 1},
		{"χ path", Map{In: idx, Attr: "t", E: PathOf{Input: Var{Name: "b"}, Path: xpath.MustParse("title")}}, []Op{idx}, 2.1, 1},
		{"χ empty path", Map{In: idx, Attr: "t", E: PathOf{Input: Var{Name: "b"}, Path: xpath.MustParse("nosuch")}}, []Op{idx}, 0.1, 1},
		{"e[a] path", Map{In: idx, Attr: "t", E: BindTuples{Attr: "m", E: PathOf{Input: Var{Name: "b"}, Path: xpath.MustParse("title")}}}, []Op{idx}, 1.2, 2},
		// One partner per left tuple: n concatenated rows over a build side
		// of n rows, whose table is a fixed number of allocations.
		{"⋈ concat", Join{L: src, R: right, Pred: CmpExpr{L: Var{Name: "x"}, R: Var{Name: "z"}, Op: value.CmpEq}}, []Op{src, right}, 0.1, 1},
		// Every key distinct: n groups, n emitted rows.
		{"Γ emit", GroupUnary{In: src, G: "g", By: []string{"x"}, Theta: value.CmpEq, F: SFCount{}}, []Op{src}, 0.1, 1},
		{"Γ self", GroupSelf{In: src, G: "g", By: []string{"x"}, F: SFCount{}}, []Op{src}, 0.1, 1},
		{"Γ ΠA", GroupUnary{In: src, G: "g", By: []string{"x"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"x"}}}, []Op{src}, 1.2, 2},
		{"Γ f ∘ σp", GroupUnary{In: src, G: "g", By: []string{"x"}, Theta: value.CmpEq, F: SFFiltered{Pred: gtNeg, Inner: SFCount{}}}, []Op{src}, 0.1, 1},
		{"µD", UnnestDistinct{In: groups, Attr: "g"}, []Op{groups}, 0.1, 1},
	} {
		added := total(tc.op)
		for _, in := range tc.inputs {
			added -= total(in)
		}
		bound := tc.max
		if race.Enabled { // n/slabMaxRows full chunks and a few while they double
			bound += float64(tc.slabs*(n/slabMaxRows+5)) / n
		}
		if added/n > bound {
			t.Errorf("%s adds %.3f allocations per tuple to its input (%.0f in all), want ≤ %.3f", tc.name, added/n, added, bound)
		}
	}
}

// TestArithModFractionalDivisor: mod is the floating remainder on both
// engines, so a divisor in (-1, 1) is an ordinary divisor (it used to
// truncate to an integer 0), and only a zero divisor yields NULL.
func TestArithModFractionalDivisor(t *testing.T) {
	for _, c := range []struct {
		r    value.Value
		want value.Value
	}{{value.Float(0.5), value.Float(0)}, {value.Float(0.3), value.Float(math.Mod(7, 0.3))}, {value.Int(0), value.Null{}}} {
		e := ArithExpr{L: ConstVal{V: value.Int(7)}, R: ConstVal{V: c.r}, Op: '%'}
		if v := e.Eval(NewCtx(nil), nil); v != c.want {
			t.Errorf("7 mod %v (eval) = %#v, want %#v", c.r, v, c.want)
		}
		if v := evalArith('%', value.Int(7), c.r); v != c.want {
			t.Errorf("7 mod %v (compiled) = %#v, want %#v", c.r, v, c.want)
		}
	}
}
