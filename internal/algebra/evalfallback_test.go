package algebra

import (
	"testing"

	"nalquery/internal/value"
)

// passOp is an operator extension the engine has never heard of: identity
// over its input, known attribute set, no slot-native iterator.
type passOp struct{ In Op }

func (p passOp) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq { return p.In.Eval(ctx, env) }
func (p passOp) String() string                                { return "pass" }
func (p passOp) Children() []Op                                { return []Op{p.In} }
func (p passOp) MapChildren(f func(Op) Op) Op                  { p.In = f(p.In); return p }
func (p passOp) Exprs() []Expr                                 { return nil }
func (p passOp) Attrs() ([]string, bool)                       { return p.In.Attrs() }

// tripOf runs f and returns the *ResourceTrip it panicked with, if any.
func tripOf(f func()) (trip *ResourceTrip) {
	defer func() {
		if v := recover(); v != nil {
			trip, _ = v.(*ResourceTrip)
		}
	}()
	f()
	return nil
}

// TestEvalFallback pins the one fallback left in the engine: an operator
// without a slot-native schema — an unknown extension in the middle of a
// row tree, and a µD root over an untracked payload that does not resolve
// at all — is materialized once by the definitional evaluator. Every entry
// point must agree with Eval on tuples and Ξ output, count the fallback,
// let a budget trip raised inside Eval through, and tolerate early Close.
func TestEvalFallback(t *testing.T) {
	emit := []Command{ExprCmd(Var{Name: "A1"}), LitCmd(";")}
	payload := value.TupleSeq{{"B": value.Int(7)}, {"B": value.Int(7)}, {"B": value.Int(8)}}
	grouped := constOp{
		ts:    value.TupleSeq{{"A1": value.Int(1), "g": payload}, {"A1": value.Int(2), "g": payload}},
		attrs: []string{"A1", "g"},
	}
	cases := []struct {
		name     string
		op       Op
		resolves bool
		tripAt   string // a charge point only the fallen-back subtree crosses
	}{
		{"extension mid-plan", XiSimple{Cmds: emit, In: Select{
			Pred: CmpExpr{L: Var{Name: "x"}, R: ConstVal{V: value.Int(1)}, Op: value.CmpGt},
			In: passOp{In: UnnestMap{In: relR1(), Attr: "x",
				E: ConstVal{V: value.Seq{value.Int(1), value.Int(2), value.Int(3)}}}},
		}}, true, TripScan},
		{"unresolvable µD root", UnnestDistinct{Attr: "g",
			In: XiSimple{Cmds: emit, In: grouped}}, false, TripDedup},
	}
	for _, c := range cases {
		if _, ok := ResolveSchema(c.op); ok != c.resolves {
			t.Fatalf("%s: ResolveSchema ok=%v, want %v", c.name, ok, c.resolves)
		}
		ref := NewCtx(nil)
		want := c.op.Eval(ref, nil)
		if len(want) < 2 || ref.OutString() == "" {
			t.Fatalf("%s: fixture too small: %s / %q", c.name, want, ref.OutString())
		}

		ctx := NewCtx(nil)
		if got := RunIter(c.op, ctx, nil); !value.TupleSeqEqual(want, got) {
			t.Errorf("%s: RunIter %s ≠ Eval %s", c.name, got, want)
		}
		if ctx.OutString() != ref.OutString() || ctx.Stats.ShimOps != 1 {
			t.Errorf("%s: RunIter Ξ %q (want %q), ShimOps %d (want 1)",
				c.name, ctx.OutString(), ref.OutString(), ctx.Stats.ShimOps)
		}

		ctx = NewCtx(nil)
		DrainIter(c.op, ctx, nil)
		if ctx.OutString() != ref.OutString() || ctx.Stats.ShimOps != 1 ||
			ctx.Stats.MapTuples == 0 {
			t.Errorf("%s: DrainIter Ξ %q (want %q), ShimOps %d (want 1), MapTuples %d (want > 0)",
				c.name, ctx.OutString(), ref.OutString(), ctx.Stats.ShimOps, ctx.Stats.MapTuples)
		}

		ctx = NewCtx(nil)
		p := OpenPump(c.op, ctx, nil)
		steps := 0
		for p.Step() {
			steps++
		}
		p.Close()
		if steps != len(want) || ctx.OutString() != ref.OutString() {
			t.Errorf("%s: Pump made %d steps (want %d), Ξ %q (want %q)",
				c.name, steps, len(want), ctx.OutString(), ref.OutString())
		}

		// A budget trip inside the evaluator surfaces unchanged.
		for name, run := range map[string]func(*Ctx){
			"RunIter":   func(ctx *Ctx) { RunIter(c.op, ctx, nil) },
			"DrainIter": func(ctx *Ctx) { DrainIter(c.op, ctx, nil) },
			"OpenPump":  func(ctx *Ctx) { OpenPump(c.op, ctx, nil).Close() },
		} {
			ctx := NewCtx(nil)
			ctx.Budget = NewBudget(0, 0)
			ctx.Budget.SetFaultHook(func(point string) bool { return point == c.tripAt })
			if trip := tripOf(func() { run(ctx) }); trip == nil || trip.Op != c.tripAt {
				t.Errorf("%s: %s under a forced %s fault: trip %v", c.name, name, c.tripAt, trip)
			}
		}

		// Abandoning the stream after one tuple, then closing twice.
		it := OpenIter(c.op, NewCtx(nil), nil)
		if first, ok := it.Next(); !ok || !value.TupleSeqEqual(value.TupleSeq{first}, want[:1]) {
			t.Errorf("%s: first tuple %s, want %s", c.name, first, want[0])
		}
		it.Close()
		it.Close()
		p = OpenPump(c.op, NewCtx(nil), nil)
		if !p.Step() {
			t.Errorf("%s: Pump exhausted before its first step", c.name)
		}
		p.Close()
		p.Close()
	}
}
