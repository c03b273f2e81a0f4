package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nalquery/internal/value"
)

// iterMatches asserts iterator evaluation equals materialized evaluation
// for an operator, including Ξ side effects.
func iterMatches(t *testing.T, op Op) {
	t.Helper()
	ctxM := NewCtx(nil)
	want := op.Eval(ctxM, nil)
	ctxI := NewCtx(nil)
	got := RunIter(native(op), ctxI)
	if !value.TupleSeqEqual(want, got) {
		t.Fatalf("iterator mismatch for %s:\nmaterialized: %s\niterator:     %s",
			op.String(), want, got)
	}
	if ctxM.OutString() != ctxI.OutString() {
		t.Fatalf("Ξ output mismatch for %s: %q vs %q", op.String(), ctxM.OutString(), ctxI.OutString())
	}
}

func TestIterBasicOps(t *testing.T) {
	ops := []Op{
		Singleton{},
		Select{In: relR2(), Pred: CmpExpr{L: Var{Name: "B"}, R: ConstVal{V: value.Int(3)}, Op: value.CmpGt}},
		Project{In: relR2(), Names: []string{"A2"}},
		ProjectDrop{In: relR2(), Names: []string{"B"}},
		ProjectRename{In: relR2(), Pairs: []Rename{{New: "C", Old: "A2"}}},
		Map{In: relR1(), Attr: "x", E: ConstVal{V: value.Int(9)}},
		SemiJoin{L: relR1(), R: relR2(), Pred: eqCmp("A1", "A2")},
		AntiJoin{L: relR1(), R: relR2(), Pred: eqCmp("A1", "A2")},
		GroupUnary{In: relR2(), G: "g", By: []string{"A2"}, Theta: value.CmpEq, F: SFCount{}},
		GroupBinary{L: relR1(), R: relR2(), G: "g", LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpEq, F: SFCount{}},
		XiSimple{In: relR1(), Cmds: []Command{ExprCmd(Var{Name: "A1"}), LitCmd(";")}},
	}
	for _, op := range ops {
		iterMatches(t, op)
	}
}

func TestIterOuterJoin(t *testing.T) {
	grouped := GroupUnary{In: relR2(), G: "g", By: []string{"A2"}, Theta: value.CmpEq, F: SFCount{}}
	iterMatches(t, OuterJoin{L: relR1(), R: grouped, Pred: eqCmp("A1", "A2"), G: "g", Default: SFCount{}})
}

func TestIterUnnest(t *testing.T) {
	grouped := GroupBinary{L: relR1(), R: relR2(), G: "g",
		LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"A2", "B"}}}
	iterMatches(t, UnnestDistinct{In: grouped, Attr: "g"})
}

func TestIterUnnestMap(t *testing.T) {
	iterMatches(t, UnnestMap{In: relR1(), Attr: "b", E: NestedApply{
		F:    SFProject{Attrs: []string{"B"}},
		Plan: Select{In: relR2(), Pred: eqCmp("A1", "A2")},
	}})
}

func TestIterCloseIdempotent(t *testing.T) {
	p := Resolve(native(Select{In: relR1(), Pred: ConstVal{V: value.Bool(true)}})).Pump(NewCtx(nil))
	p.Close()
	p.Close()
}

func TestIterEarlyClose(t *testing.T) {
	oj := OuterJoin{L: relR1(), R: relR2(), Pred: eqCmp("A1", "A2"), G: "B", Default: SFCount{}}
	p := Resolve(native(oj)).Pump(NewCtx(nil))
	if !p.Step() {
		t.Fatalf("expected at least one tuple")
	}
	p.Close()
}

// TestIterMatchesEvalProperty: random plan shapes evaluate identically
// under both engines.
func TestIterMatchesEvalProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(attrs []string) constOp {
			n := rng.Intn(7)
			ts := make(value.TupleSeq, n)
			for i := range ts {
				tp := value.Tuple{}
				for _, a := range attrs {
					tp[a] = value.Int(int64(rng.Intn(4)))
				}
				ts[i] = tp
			}
			return constOp{ts: ts, attrs: attrs}
		}
		e1 := mk([]string{"A1"})
		e2 := mk([]string{"A2", "B"})
		var op Op
		switch rng.Intn(6) {
		case 0:
			op = OuterJoin{L: e1, R: e2, Pred: eqCmp("A1", "A2"), G: "B", Default: SFCount{}}
		case 1:
			op = SemiJoin{L: e1, R: e2, Pred: eqCmp("A1", "A2")}
		case 2:
			op = AntiJoin{L: e1, R: e2, Pred: eqCmp("A1", "A2")}
		case 3:
			op = GroupBinary{L: e1, R: e2, G: "g", LAttrs: []string{"A1"},
				RAttrs: []string{"A2"}, Theta: value.CmpEq, F: SFCount{}}
		case 4:
			op = OuterJoin{L: e1, R: e2, Pred: CmpExpr{L: Var{Name: "A1"}, R: Var{Name: "A2"}, Op: value.CmpLt},
				G: "B", Default: SFCount{}}
		default:
			op = UnnestDistinct{In: GroupUnary{In: e2, G: "g", By: []string{"A2"},
				Theta: value.CmpEq, F: SFProject{Attrs: []string{"A2", "B"}}}, Attr: "g"}
		}
		a := op.Eval(NewCtx(nil), nil)
		b := RunIter(native(op), NewCtx(nil))
		return value.TupleSeqEqual(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
