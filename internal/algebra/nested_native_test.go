package algebra

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
)

// Nested algebraic expressions on the row engine: the inner plan is resolved
// with the plan, where the subscript compiler meets it, and opened once per
// outer tuple under the chain of rows enclosing it. These tests
// run hand-built shapes — compiled plans have few of them — on both
// evaluators and require the same tuples, the same Ξ output and the same
// counters.

// sameRun runs op on the definitional evaluator and on the row engine and
// requires them to agree; it returns the row engine's counters.
func sameRun(t *testing.T, name string, op Op) Stats {
	t.Helper()
	op = native(op)
	ref, ctx := NewCtx(nil), NewCtx(nil)
	want := op.Eval(ref, nil)
	n := Resolve(op)
	if !n.OK {
		t.Fatalf("%s: does not resolve (%s)", name, n.unresolved().Op)
	}
	got := RunIter(op, ctx)
	if !value.TupleSeqEqual(want, got) {
		t.Errorf("%s: the row engine differs from Eval\neval: %.300s\nrows: %.300s", name, want, got)
	}
	if ref.OutString() != ctx.OutString() {
		t.Errorf("%s: Ξ output differs: eval %.200q, rows %.200q", name, ref.OutString(), ctx.OutString())
	}
	if ref.Stats != ctx.Stats {
		t.Errorf("%s: Eval counted %+v, the row engine %+v", name, ref.Stats, ctx.Stats)
	}
	return ctx.Stats
}

func cmp(l Expr, op value.CmpOp, r Expr) Expr { return CmpExpr{L: l, R: r, Op: op} }

// TestNestedInNestedReadsBothLevels: a nested plan whose own subscript holds a
// nested plan reading A1 of the outermost tuple and B of the middle one — and
// both are resolved with the plan: the attribute the outer χ binds is typed
// by the middle plan, whose own χ the innermost plan typed.
func TestNestedInNestedReadsBothLevels(t *testing.T) {
	e3 := constOp{ts: value.TupleSeq{{"C": value.Int(1)}, {"C": value.Int(3)}, {"C": value.Int(4)}, {"C": value.Int(9)}},
		attrs: []string{"C"}}
	innermost := Select{In: e3, Pred: AndExpr{
		L: cmp(Var{Name: "C"}, value.CmpGe, Var{Name: "A1"}),
		R: cmp(Var{Name: "C"}, value.CmpLe, Var{Name: "B"})}}
	middle := Map{In: Select{In: relR2(), Pred: eqCmp("A1", "A2")}, Attr: "m",
		E: NestedApply{F: SFCount{}, Plan: innermost}}
	op := XiSimple{Cmds: []Command{ExprCmd(Var{Name: "A1"}), LitCmd(":"), ExprCmd(Var{Name: "g"}), LitCmd(";")},
		In: Map{In: relR1(), Attr: "g", E: NestedApply{F: SFProject{Attrs: []string{"B", "m"}}, Plan: middle}}}
	// 3 outer tuples open the middle plan; it yields 2 + 2 + 0 tuples, each
	// opening the innermost.
	if st := sameRun(t, "nested in nested", op); st.NestedEvals != 3+4 {
		t.Errorf("%d nested evaluations, want 7", st.NestedEvals)
	}

	n := Resolve(native(op))
	if g := n.Kids[0].Schema.nested("g"); g == nil || !slices.Equal(g.Lay.Names(), []string{"B", "m"}) {
		t.Errorf("the outer χ's g is typed %+v, want the middle plan's ΠB,m", g)
	}
}

// TestQuantifiersOverCorrelatedRanges: ∃ and ∀ over a range that depends on
// the outer tuple and is empty for some (∃ false, ∀ true there), with
// predicates that read the outer tuple, alone and under ¬, ∨, ∧, if and a
// builtin — every position the compiler meets a nested plan at.
func TestQuantifiersOverCorrelatedRanges(t *testing.T) {
	rng := func(lo int64) Op { // R2 tuples joining the outer A1 with B ≥ lo
		return Select{In: relR2(), Pred: AndExpr{L: eqCmp("A1", "A2"),
			R: cmp(Var{Name: "B"}, value.CmpGe, ConstVal{V: value.Int(lo)})}}
	}
	some := func(lo, gt int64) Expr {
		return ExistsQ{Var: "x", RangeAttr: "B", Range: rng(lo),
			Pred: cmp(Var{Name: "x"}, value.CmpGt, ArithExpr{L: Var{Name: "A1"}, R: ConstVal{V: value.Int(gt)}, Op: '+'})}
	}
	every := func(lo, gt int64) Expr {
		return ForallQ{Var: "x", RangeAttr: "B", Range: rng(lo),
			Pred: cmp(Var{Name: "x"}, value.CmpGt, ArithExpr{L: Var{Name: "A1"}, R: ConstVal{V: value.Int(gt)}, Op: '+'})}
	}
	for name, pred := range map[string]Expr{
		"∃":          some(0, 1),
		"∀":          every(0, 1),
		"¬∃":         NotExpr{E: some(3, 0)},
		"∃ ∨ ∀":      OrExpr{L: some(5, 0), R: every(0, 2)},
		"∀ ∧ ∃":      AndExpr{L: every(0, 0), R: some(0, 2)},
		"if ∃ ∀ ∃":   CondExpr{If: some(3, 0), Then: every(0, 1), Else: some(0, 0)},
		"not(∃) = ∀": cmp(Call{Fn: "not", Args: []Expr{some(0, 1)}}, value.CmpEq, every(4, 0)),
		"∃ of a range attribute no tuple binds": ExistsQ{Var: "x", RangeAttr: "Z", Range: rng(0),
			Pred: cmp(Var{Name: "x"}, value.CmpEq, Var{Name: "x"})},
		"∀ shadowing an outer attribute": ForallQ{Var: "A1", RangeAttr: "B", Range: rng(0),
			Pred: cmp(Var{Name: "A1"}, value.CmpGe, ConstVal{V: value.Int(2)})},
		"∃ inside ∀'s predicate": ForallQ{Var: "x", RangeAttr: "B", Range: rng(0),
			Pred: ExistsQ{Var: "y", RangeAttr: "A2", Range: Select{In: relR2(), Pred: cmp(Var{Name: "B"}, value.CmpLt, Var{Name: "x"})},
				Pred: cmp(Var{Name: "y"}, value.CmpLe, Var{Name: "A1"})}},
	} {
		sameRun(t, name, Select{In: relR1(), Pred: pred})
	}
	// So does a join residual — behind the equality the hash join drops —
	// and every Ξ command list.
	sameRun(t, "⟕ residual", OuterJoin{L: relR1(), R: constOp{ts: value.TupleSeq{{"K": value.Int(1)}, {"K": value.Int(3)}}, attrs: []string{"K"}},
		Pred: AndExpr{L: AndExpr{L: some(0, 1), R: eqCmp("A1", "K")}, R: every(0, 1)}, G: "K", Default: SFCount{}})
	sameRun(t, "Ξ-group", XiGroup{In: relR1(), By: []string{"A1"},
		S1: []Command{ExprCmd(some(0, 1))}, S2: []Command{LitCmd("|"), ExprCmd(every(0, 1))}, S3: []Command{ExprCmd(some(4, 0))}})
}

// TestSequenceFunctionPredicatesHoldNestedPlans: f ∘ σp where p holds a
// nested plan and reads the outer tuple — f is compiled once and reads it
// through the chain it is applied under — as the function of a nested block,
// of a nested block whose rows a group payload releases, and of Γ, with a
// nested plan behind each.
func TestSequenceFunctionPredicatesHoldNestedPlans(t *testing.T) {
	hasSmaller := ExistsQ{Var: "y", RangeAttr: "B", Range: relR2(),
		Pred: AndExpr{L: cmp(Var{Name: "y"}, value.CmpLt, Var{Name: "B"}), R: cmp(Var{Name: "y"}, value.CmpGt, Var{Name: "A1"})}}
	f := SFFiltered{Pred: hasSmaller, Inner: SFCount{}}
	after := ExistsQ{Var: "z", RangeAttr: "A2", Range: relR2(), Pred: eqCmp("z", "A1")}

	// The block's own plan differs from the one in f's predicate and from the
	// one behind them, so mixing them up shows.
	block := Select{In: relR2(), Pred: cmp(Var{Name: "A1"}, value.CmpLe, Var{Name: "A2"})}

	sameRun(t, "nested block", Select{In: Map{In: relR1(), Attr: "n", E: NestedApply{F: f, Plan: block}}, Pred: after})
	sameRun(t, "nested block then ∃", Map{In: relR1(), Attr: "n",
		E: Call{Fn: "concat", Args: []Expr{NestedApply{F: f, Plan: block}, ConstVal{V: value.Str("/")}, after}}})
	released := UnnestDistinct{In: GroupUnary{In: block, G: "g", By: []string{"A2"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"A2", "B"}}}, Attr: "g"}
	sameRun(t, "group payload", Map{In: relR1(), Attr: "n",
		E: Call{Fn: "concat", Args: []Expr{NestedApply{F: f, Plan: released}, ConstVal{V: value.Str("/")}, after}}})
	sameRun(t, "Γ", GroupBinary{L: relR1(), R: relR2(), G: "g", LAttrs: []string{"A1"}, RAttrs: []string{"A2"},
		Theta: value.CmpLe, F: SFFiltered{Pred: after, Inner: SFProject{Attrs: []string{"B"}}}})
}

// TestAbsentInnerSlotShowsTheOuterBinding: a nested plan whose rows leave A1
// absent — Π of an attribute its input does not bind — reads the outer
// tuple's A1 through the hole, as env ◦ t does in Eval: in the nested plan's
// own σ, and in the predicate of f applied to its rows.
func TestAbsentInnerSlotShowsTheOuterBinding(t *testing.T) {
	holed := Project{Names: []string{"A1", "A2", "B"}, In: relR2()}
	for name, e := range map[string]Expr{
		"σ in the nested plan": NestedApply{F: SFCount{}, Plan: Select{In: holed, Pred: eqCmp("A1", "A2")}},
		"f ∘ σp over its rows": NestedApply{F: SFFiltered{Pred: eqCmp("A1", "A2"), Inner: SFCount{}}, Plan: holed},
	} {
		op := Map{In: relR1(), Attr: "n", E: e}
		sameRun(t, name, op)
		got := RunIter(native(op), NewCtx(nil))
		for i, want := range []int64{2, 2, 0} { // outer A1 = 1, 2, 3
			if n := got[i]["n"]; !value.DeepEqual(n, value.Int(want)) {
				t.Errorf("%s: outer tuple %d counts %v, want %d", name, i, n, want)
			}
		}
	}
}

// TestInnerIndexScanProbesPerOpen: an index scan inside a nested plan, keyed
// by an attribute of the outer tuple, probes once per outer tuple with that
// tuple's key.
func TestInnerIndexScanProbesPerOpen(t *testing.T) {
	var xml strings.Builder
	xml.WriteString("<r>")
	for _, k := range []string{"1", "2", "2", "5", "1", "2"} {
		xml.WriteString("<k>" + k + "</k>")
	}
	xml.WriteString("</r>")
	doc, err := dom.ParseString(xml.String(), "k.xml")
	if err != nil {
		t.Fatal(err)
	}
	ix := fakeOf(doc, doc.Root.Descendants("k", nil), true)
	op := Map{In: relR1(), Attr: "n", E: NestedApply{F: SFCount{},
		Plan: IndexScan{In: Singleton{}, Attr: "k", Index: ix, Cmp: value.CmpEq, Key: Var{Name: "A1"}}}}
	st := sameRun(t, "indexed nested", op)
	if st.IndexScans != 3 || st.NestedEvals != 3 || ix.probes != 2*3 {
		t.Errorf("%d index scans over %d nested evaluations (%d probes on both evaluators), want 3, 3 and 6",
			st.IndexScans, st.NestedEvals, ix.probes)
	}
	got := RunIter(native(op), NewCtx(nil))
	for i, want := range []int64{2, 3, 0} { // keys 1, 2, 3
		if n := got[i]["n"]; !value.DeepEqual(n, value.Int(want)) {
			t.Errorf("outer tuple %d: %v matches, want %d", i, n, want)
		}
	}
}

// TestNestedPlansMatchEvalProperty: random correlated nested plans — a
// nested block under each sequence function, and both quantifiers — over
// random relations, empty ones included.
func TestNestedPlansMatchEvalProperty(t *testing.T) {
	quickCheck(t, "nested=eval", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randRel(rng, []string{"A1", "C"}, 6, 4)
		e2 := randRel(rng, []string{"A2", "B"}, 8, 4)
		inner := Select{In: e2, Pred: eqCmp("A1", "A2")}
		fs := []SeqFunc{SFProject{Attrs: []string{"A2", "B"}}, SFCount{}, SFProject{Attrs: []string{"B"}}, SFAgg{Fn: "max", Attr: "B"},
			SFFiltered{Pred: cmp(Var{Name: "B"}, value.CmpGe, Var{Name: "C"}), Inner: SFAgg{Fn: "sum", Attr: "B"}}}
		pred := cmp(Var{Name: "x"}, value.CmpGe, Var{Name: "C"})
		ops := []Op{
			Map{In: e1, Attr: "g", E: NestedApply{F: fs[rng.Intn(len(fs))], Plan: inner}},
			Select{In: e1, Pred: ExistsQ{Var: "x", RangeAttr: "B", Range: inner, Pred: pred}},
			Select{In: e1, Pred: ForallQ{Var: "x", RangeAttr: "B", Range: inner, Pred: pred}},
			UnnestDistinct{Attr: "g", In: Map{In: e1, Attr: "g", E: NestedApply{F: SFProject{Attrs: []string{"A2", "B", "n"}},
				Plan: Map{In: inner, Attr: "n", E: NestedApply{F: SFCount{},
					Plan: Select{In: e2, Pred: AndExpr{L: cmp(Var{Name: "A2"}, value.CmpLe, Var{Name: "C"}), R: eqCmp("B", "B")}}}}}}},
		}
		for _, op := range ops {
			op = native(op)
			ref, ctx := NewCtx(nil), NewCtx(nil)
			if !value.TupleSeqEqual(op.Eval(ref, nil), RunIter(op, ctx)) || ref.Stats != ctx.Stats {
				t.Logf("seed %d: %s", seed, Explain(op))
				return false
			}
		}
		return true
	})
}
