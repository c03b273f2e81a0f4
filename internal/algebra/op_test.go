package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nalquery/internal/value"
)

// Test fixtures mirroring Fig. 1 / Fig. 2 of the paper:
// R1 = <[A1:1], [A1:2], [A1:3]>, R2 = <[1,2],[1,3],[2,4],[2,5]>.

func relR1() Op {
	return constOp{
		ts: value.TupleSeq{
			{"A1": value.Int(1)},
			{"A1": value.Int(2)},
			{"A1": value.Int(3)},
		},
		attrs: []string{"A1"},
	}
}

func relR2() Op {
	return constOp{
		ts: value.TupleSeq{
			{"A2": value.Int(1), "B": value.Int(2)},
			{"A2": value.Int(1), "B": value.Int(3)},
			{"A2": value.Int(2), "B": value.Int(4)},
			{"A2": value.Int(2), "B": value.Int(5)},
		},
		attrs: []string{"A2", "B"},
	}
}

// constOp is a leaf operator over a constant tuple sequence (a stand-in for
// a base scan in operator-level tests).
type constOp struct {
	ts    value.TupleSeq
	attrs []string
}

func (c constOp) Eval(*Ctx, value.Tuple) value.TupleSeq { return c.ts }
func (c constOp) String() string                        { return "const" }
func (c constOp) Children() []Op                        { return nil }
func (c constOp) MapChildren(func(Op) Op) Op            { return c }
func (c constOp) Exprs() []Expr                         { return nil }
func (c constOp) Attrs() ([]string, bool)               { return c.attrs, true }

func eval(t *testing.T, op Op) value.TupleSeq {
	t.Helper()
	ctx := NewCtx(nil)
	return op.Eval(ctx, nil)
}

func eqCmp(l, r string) Expr {
	return CmpExpr{L: Var{Name: l}, R: Var{Name: r}, Op: value.CmpEq}
}

// randRel builds a random constant relation for the property tests.
func randRel(rng *rand.Rand, attrs []string, maxLen, keyRange int) constOp {
	n := rng.Intn(maxLen + 1)
	ts := make(value.TupleSeq, n)
	for i := range ts {
		t := value.Tuple{}
		for _, a := range attrs {
			t[a] = value.Int(int64(rng.Intn(keyRange)))
		}
		ts[i] = t
	}
	return constOp{ts: ts, attrs: attrs}
}

func quickCheck(t *testing.T, name string, prop func(seed int64) bool) {
	t.Helper()
	cfg := &quick.Config{MaxCount: 300}
	if testing.Short() {
		cfg.MaxCount = 50
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("%s violated: %v", name, err)
	}
}

func TestSingleton(t *testing.T) {
	out := eval(t, Singleton{})
	if len(out) != 1 || len(out[0]) != 0 {
		t.Fatalf("□ must produce one empty tuple, got %s", out)
	}
}

func TestSelectPreservesOrder(t *testing.T) {
	out := eval(t, Select{In: relR2(), Pred: CmpExpr{L: Var{Name: "B"}, R: ConstVal{V: value.Int(3)}, Op: value.CmpGt}})
	want := value.TupleSeq{
		{"A2": value.Int(2), "B": value.Int(4)},
		{"A2": value.Int(2), "B": value.Int(5)},
	}
	if !value.TupleSeqEqual(out, want) {
		t.Fatalf("σ wrong: %s", out)
	}
}

// TestMapFigure1 replays the paper's Fig. 1: χ a:σA1=A2(R2) (R1).
func TestMapFigure1(t *testing.T) {
	m := Map{
		In:   relR1(),
		Attr: "a",
		E:    NestedApply{F: SFProject{Attrs: []string{"A2", "B"}}, Plan: Select{In: relR2(), Pred: eqCmp("A1", "A2")}},
	}
	out := eval(t, m)
	if len(out) != 3 {
		t.Fatalf("want 3 tuples, got %d", len(out))
	}
	g1 := out[0]["a"].(value.TupleSeq)
	g3 := out[2]["a"].(value.TupleSeq)
	if len(g1) != 2 || len(g3) != 0 {
		t.Fatalf("Fig.1 group sizes wrong: |a(1)|=%d |a(3)|=%d", len(g1), len(g3))
	}
	if !value.DeepEqual(g1[0]["B"], value.Int(2)) || !value.DeepEqual(g1[1]["B"], value.Int(3)) {
		t.Fatalf("Fig.1 group content wrong: %s", g1)
	}
}

// TestGroupUnaryFigure2 replays Γg;=A2;count(R2) and Γg;=A2;ΠA2,B(R2) — the
// figure's Γg;=A2;id, since A2, B are all of R2's attributes.
func TestGroupUnaryFigure2(t *testing.T) {
	count := eval(t, GroupUnary{In: relR2(), G: "g", By: []string{"A2"}, Theta: value.CmpEq, F: SFCount{}})
	wantCount := value.TupleSeq{
		{"A2": value.Int(1), "g": value.Int(2)},
		{"A2": value.Int(2), "g": value.Int(2)},
	}
	if !value.TupleSeqEqual(count, wantCount) {
		t.Fatalf("Γcount wrong: %s", count)
	}

	all := eval(t, GroupUnary{In: relR2(), G: "g", By: []string{"A2"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"A2", "B"}}})
	if len(all) != 2 {
		t.Fatalf("ΓΠ wrong size: %s", all)
	}
	g2 := all[1]["g"].(value.TupleSeq)
	if len(g2) != 2 || !value.DeepEqual(g2[0]["B"], value.Int(4)) {
		t.Fatalf("ΓΠ second group wrong: %s", g2)
	}
}

// TestGroupBinaryFigure2 replays R1 Γg;A1=A2;ΠA2,B (R2), the figure's id:
// the left-hand side determines the groups, including the empty group for
// A1=3.
func TestGroupBinaryFigure2(t *testing.T) {
	out := eval(t, GroupBinary{L: relR1(), R: relR2(), G: "g",
		LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"A2", "B"}}})
	if len(out) != 3 {
		t.Fatalf("want 3 groups, got %d", len(out))
	}
	if g := out[2]["g"].(value.TupleSeq); len(g) != 0 {
		t.Fatalf("A1=3 must have the empty group, got %s", g)
	}
	if g := out[0]["g"].(value.TupleSeq); len(g) != 2 {
		t.Fatalf("A1=1 group wrong: %s", g)
	}
}

// TestGroupBinaryThetaNonEq covers the definitional scan — the path every
// θ other than '=' takes — on both engines: R1 Γg;A1<A2;count (R2).
func TestGroupBinaryThetaNonEq(t *testing.T) {
	gb := GroupBinary{L: relR1(), R: relR2(), G: "g",
		LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpLt, F: SFCount{}}
	// A1=1 stands below the two A2=2 tuples; A1=2 and A1=3 below none.
	want := value.TupleSeq{
		{"A1": value.Int(1), "g": value.Int(2)},
		{"A1": value.Int(2), "g": value.Int(0)},
		{"A1": value.Int(3), "g": value.Int(0)},
	}
	if out := eval(t, gb); !value.TupleSeqEqual(out, want) {
		t.Fatalf("Γ-binary θ=< wrong: %s", out)
	}
	diffOp(t, "Γ-binary-θ", gb)
}

func TestGroupUnaryThetaNonEq(t *testing.T) {
	// Γg;<A2;count: for each distinct key k, count tuples with k < A2.
	out := eval(t, GroupUnary{In: relR2(), G: "g", By: []string{"A2"}, Theta: value.CmpLt, F: SFCount{}})
	// keys 1 and 2; for key 1: tuples with 1 < A2 → two (A2=2); key 2: none.
	want := value.TupleSeq{
		{"A2": value.Int(1), "g": value.Int(2)},
		{"A2": value.Int(2), "g": value.Int(0)},
	}
	if !value.TupleSeqEqual(out, want) {
		t.Fatalf("Γ θ=< wrong: %s", out)
	}
}

func TestSemiAntiJoin(t *testing.T) {
	semi := eval(t, SemiJoin{L: relR1(), R: relR2(), Pred: eqCmp("A1", "A2")})
	if len(semi) != 2 || !value.DeepEqual(semi[0]["A1"], value.Int(1)) || !value.DeepEqual(semi[1]["A1"], value.Int(2)) {
		t.Fatalf("⋉ wrong: %s", semi)
	}
	anti := eval(t, AntiJoin{L: relR1(), R: relR2(), Pred: eqCmp("A1", "A2")})
	if len(anti) != 1 || !value.DeepEqual(anti[0]["A1"], value.Int(3)) {
		t.Fatalf("▷ wrong: %s", anti)
	}
}

func TestOuterJoinDefault(t *testing.T) {
	// Join R1 with Rcount2 (grouped by A2, counted) — A1=3 finds no partner
	// and must receive the default count 0 (the paper's Sec. 2 example).
	grouped := GroupUnary{In: relR2(), G: "g", By: []string{"A2"}, Theta: value.CmpEq, F: SFCount{}}
	oj := OuterJoin{L: relR1(), R: grouped, Pred: eqCmp("A1", "A2"), G: "g", Default: SFCount{}}
	out := eval(t, oj)
	if len(out) != 3 {
		t.Fatalf("⟕ size %d", len(out))
	}
	if !value.DeepEqual(out[0]["g"], value.Int(2)) {
		t.Fatalf("⟕ g(1) = %v", out[0]["g"])
	}
	if !value.DeepEqual(out[2]["g"], value.Int(0)) {
		t.Fatalf("⟕ default must be f() = 0, got %v", out[2]["g"])
	}
	if _, isNull := out[2]["A2"].(value.Null); !isNull {
		t.Fatalf("⟕ must ⊥-pad A2, got %v", out[2]["A2"])
	}
}

// TestUnnestInverse verifies µDg(Γg;=A2;ΠA2,B(R2)) = R2 (the paper's example
// "µg(Rg2) = R2"; R2 has no duplicate tuple, so µD and µ agree on it).
func TestUnnestInverse(t *testing.T) {
	grouped := GroupUnary{In: relR2(), G: "g", By: []string{"A2"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"A2", "B"}}}
	out := eval(t, UnnestDistinct{In: grouped, Attr: "g"})
	if !value.TupleSeqEqual(out, relR2().(constOp).ts) {
		t.Fatalf("µD(ΓΠ) ≠ R2: %s", out)
	}
}

func TestUnnestDistinct(t *testing.T) {
	dup := constOp{
		ts: value.TupleSeq{{
			"k": value.Int(7),
			"g": value.TupleSeq{{"x": value.Int(1)}, {"x": value.Int(1)}, {"x": value.Int(2)}},
		}},
		attrs: []string{"g", "k"},
	}
	out := eval(t, UnnestDistinct{In: dup, Attr: "g"})
	want := value.TupleSeq{
		{"k": value.Int(7), "x": value.Int(1)},
		{"k": value.Int(7), "x": value.Int(2)},
	}
	if !value.TupleSeqEqual(out, want) {
		t.Fatalf("µD wrong: %s", out)
	}
}

func TestUnnestMapDropsEmpty(t *testing.T) {
	u := UnnestMap{In: relR1(), Attr: "b", E: NestedApply{
		F:    SFProject{Attrs: []string{"B"}},
		Plan: Select{In: relR2(), Pred: eqCmp("A1", "A2")},
	}}
	out := eval(t, u)
	// A1=3 has no matches and produces no tuples (for-clause semantics).
	if len(out) != 4 {
		t.Fatalf("Υ size %d: %s", len(out), out)
	}
}

func TestProjectRenameKeepsOthers(t *testing.T) {
	out := eval(t, ProjectRename{In: relR2(), Pairs: []Rename{{New: "C", Old: "A2"}}})
	if _, ok := out[0]["C"]; !ok {
		t.Fatalf("rename missing C: %s", out[0])
	}
	if _, ok := out[0]["B"]; !ok {
		t.Fatalf("rename must keep B: %s", out[0])
	}
	if _, ok := out[0]["A2"]; ok {
		t.Fatalf("rename must remove A2: %s", out[0])
	}
}

func TestEmptyInputsProduceEmptyOutputs(t *testing.T) {
	empty := constOp{attrs: []string{"A1"}}
	ops := []Op{
		Select{In: empty, Pred: ConstVal{V: value.Bool(true)}},
		Project{In: empty, Names: []string{"A1"}},
		Map{In: empty, Attr: "x", E: ConstVal{V: value.Int(1)}},
		SemiJoin{L: empty, R: relR2(), Pred: eqCmp("A1", "A2")},
		AntiJoin{L: empty, R: relR2(), Pred: eqCmp("A1", "A2")},
		OuterJoin{L: empty, R: relR2(), Pred: eqCmp("A1", "A2"), G: "g", Default: SFCount{}},
		GroupBinary{L: empty, R: relR2(), G: "g", LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpEq, F: SFCount{}},
		GroupUnary{In: empty, G: "g", By: []string{"A1"}, Theta: value.CmpEq, F: SFCount{}},
		UnnestDistinct{In: empty, Attr: "g"},
		UnnestMap{In: empty, Attr: "x", E: ConstVal{V: value.Int(1)}},
	}
	for _, op := range ops {
		if out := eval(t, op); len(out) != 0 {
			t.Errorf("%s on empty input produced %s", op.String(), out)
		}
	}
}

// TestXiAuthorTitleExample replays the Ξ example of Sec. 2 (author/title
// grouping with the group-detecting Ξ).
func TestXiAuthorTitleExample(t *testing.T) {
	in := constOp{
		ts: value.TupleSeq{
			{"a": value.Str("author1"), "t": value.Str("title1")},
			{"a": value.Str("author1"), "t": value.Str("title2")},
			{"a": value.Str("author2"), "t": value.Str("title1")},
			{"a": value.Str("author2"), "t": value.Str("title3")},
		},
		attrs: []string{"a", "t"},
	}
	xi := XiGroup{
		In: in,
		By: []string{"a"},
		S1: []Command{LitCmd("<author>"), LitCmd("<name>"), ExprCmd(Var{Name: "a"}), LitCmd("</name>")},
		S2: []Command{LitCmd("<title>"), ExprCmd(Var{Name: "t"}), LitCmd("</title>")},
		S3: []Command{LitCmd("</author>")},
	}
	ctx := NewCtx(nil)
	xi.Eval(ctx, nil)
	want := "<author><name>author1</name><title>title1</title><title>title2</title></author>" +
		"<author><name>author2</name><title>title1</title><title>title3</title></author>"
	if ctx.OutString() != want {
		t.Fatalf("Ξ example wrong:\ngot:  %s\nwant: %s", ctx.OutString(), want)
	}
}

func TestXiSimpleIdentity(t *testing.T) {
	xi := XiSimple{In: relR1(), Cmds: []Command{ExprCmd(Var{Name: "A1"}), LitCmd(";")}}
	ctx := NewCtx(nil)
	out := xi.Eval(ctx, nil)
	if !value.TupleSeqEqual(out, relR1().(constOp).ts) {
		t.Fatalf("Ξ must return its input")
	}
	if ctx.OutString() != "1;2;3;" {
		t.Fatalf("Ξ output %q", ctx.OutString())
	}
}

// TestFamiliarEquivalences spot-checks the Sec. 2 "familiar equivalences"
// on ordered sequences (the pushdowns are internal/core's sec2_prop_test).
func TestFamiliarEquivalences(t *testing.T) {
	p1 := CmpExpr{L: Var{Name: "B"}, R: ConstVal{V: value.Int(2)}, Op: value.CmpGt}
	p2 := CmpExpr{L: Var{Name: "B"}, R: ConstVal{V: value.Int(5)}, Op: value.CmpLt}
	// σp1(σp2(e)) = σp2(σp1(e))
	a := eval(t, Select{In: Select{In: relR2(), Pred: p2}, Pred: p1})
	b := eval(t, Select{In: Select{In: relR2(), Pred: p1}, Pred: p2})
	if !value.TupleSeqEqual(a, b) {
		t.Fatalf("selection commutation fails")
	}
}
