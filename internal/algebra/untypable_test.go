package algebra

import (
	"fmt"
	"strings"
	"testing"

	"nalquery/internal/value"
)

// passOp is an operator extension the engine has never heard of: identity
// over its input, known attribute set, no schema rule and no iterator.
type passOp struct{ In Op }

func (p passOp) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq { return p.In.Eval(ctx, env) }
func (p passOp) String() string                                { return "pass" }
func (p passOp) Children() []Op                                { return []Op{p.In} }
func (p passOp) MapChildren(f func(Op) Op) Op                  { p.In = f(p.In); return p }
func (p passOp) Exprs() []Expr                                 { return nil }
func (p passOp) Attrs() ([]string, bool)                       { return p.In.Attrs() }

// oddExpr and oddFn are a subscript expression and a sequence function from
// outside the engine's inventory.
type oddExpr struct{ ConstVal }

type oddFn struct{ SFCount }

// TestUntypablePlanRefusedAtOpen pins what replaced the fallback to the
// definitional evaluator: a plan the resolver cannot type — it still has a
// definitional Eval, so the oracle can run it — does not resolve, and every
// way of opening it on the engine fails before anything has run (no Ξ output,
// no scan), naming the lowest operator without schema.
func TestUntypablePlanRefusedAtOpen(t *testing.T) {
	emit := []Command{ExprCmd(Var{Name: "A1"}), LitCmd(";")}
	always := ConstVal{V: value.Bool(true)}
	payload := value.TupleSeq{{"B": value.Int(7)}, {"B": value.Int(8)}}
	grouped := constOp{
		ts:    value.TupleSeq{{"A1": value.Int(1), "g": payload}, {"A1": value.Int(2), "g": payload}},
		attrs: []string{"A1", "g"},
	}
	xi := func(in Op) Op { return XiSimple{Cmds: emit, In: in} }
	for name, c := range map[string]struct {
		op  Op
		bad string // String() of the operator the refusal names
	}{
		"extension mid-plan":        {xi(Select{Pred: always, In: passOp{In: relR1()}}), "pass"},
		"µD over untracked payload": {UnnestDistinct{Attr: "g", In: xi(grouped)}, "µD[g]"},
		"colliding ⟕ layouts": {xi(OuterJoin{L: relR1(), R: relR1(), Pred: always, G: "A1", Default: SFCount{}}),
			"⟕[A1:count(); true]"},
		"colliding ⋉ layouts": {xi(SemiJoin{L: relR1(), R: relR1(), Pred: always}), "⋉[true]"},
		"⟕ default outside l ◦ r": {xi(OuterJoin{L: relR1(), R: relR2(), Pred: eqCmp("A1", "A2"),
			G: "g", Default: SFCount{}}), "⟕[g:count(); A1 = A2]"},
		"sort key unbound":    {xi(Sort{In: relR1(), By: []string{"Z"}}), Sort{By: []string{"Z"}}.String()},
		"group key unbound":   {xi(GroupSelf{In: relR1(), G: "g", By: []string{"Z"}, F: SFCount{}}), GroupSelf{G: "g", By: []string{"Z"}, F: SFCount{}}.String()},
		"unknown expression":  {xi(Select{Pred: oddExpr{always}, In: relR1()}), "σ[true]"},
		"unknown function":    {xi(GroupSelf{In: relR1(), G: "g", By: []string{"A1"}, F: oddFn{}}), GroupSelf{G: "g", By: []string{"A1"}, F: oddFn{}}.String()},
		"empty projection fn": {xi(GroupSelf{In: relR1(), G: "g", By: []string{"A1"}, F: SFProject{}}), GroupSelf{G: "g", By: []string{"A1"}, F: SFProject{}}.String()},
		"untypable nested plan": {xi(Select{In: relR1(), Pred: ExistsQ{Var: "x", RangeAttr: "A2",
			Range: passOp{In: relR2()}, Pred: eqCmp("x", "A1")}}), "pass"},
		"untypable plan nested twice": {xi(Map{In: relR1(), Attr: "n", E: NestedApply{F: SFCount{},
			Plan: Select{In: relR2(), Pred: ForallQ{Var: "x", RangeAttr: "A1",
				Range: SemiJoin{L: relR1(), R: relR1(), Pred: always}, Pred: eqCmp("x", "A2")}}}}), "⋉[true]"},
	} {
		op := native(c.op)
		n := Resolve(op)
		if n.OK {
			t.Errorf("%s: resolves to %v", name, n.Schema.Lay.Names())
			continue
		}
		if got := n.unresolved().Op.String(); got != c.bad {
			t.Errorf("%s: the unresolved operator is %s, want %s", name, got, c.bad)
		}
		if _, ok := ResolveSchema(op); ok {
			t.Errorf("%s: ResolveSchema reports a schema", name)
		}
		// The oracle still runs it.
		ref := NewCtx(nil)
		c.op.Eval(ref, nil)
		if ref.OutString() == "" {
			t.Fatalf("%s: fixture emits nothing under Eval", name)
		}
		for entry, run := range map[string]func(*Ctx){
			"RunIter":   func(ctx *Ctx) { RunIter(op, ctx) },
			"DrainIter": func(ctx *Ctx) { DrainIter(op, ctx, nil) },
			"Node.Pump": func(ctx *Ctx) { n.Pump(ctx) },
		} {
			ctx := NewCtx(nil)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				run(ctx)
				return
			}()
			if !strings.Contains(msg, "no slot schema for operator "+c.bad) {
				t.Errorf("%s: %s ended with %q, want a refusal naming %s", name, entry, msg, c.bad)
			}
			if ctx.OutString() != "" || ctx.Stats != (Stats{}) {
				t.Errorf("%s: %s ran before refusing: Ξ %q, stats %+v", name, entry, ctx.OutString(), ctx.Stats)
			}
		}
	}
}
