// Package engine seeds the Op.Eval confinement: an operator's Eval may be
// called from methods named Eval and Apply and from tests; any other call
// needs a //nal:reference-engine annotation with a reason.
package engine

// Op is an algebraic operator: Eval beside Children and MapChildren.
type Op interface {
	Eval(env int) int
	Children() []Op
	MapChildren(f func(Op) Op) Op
}

// Expr has an Eval too, but is no operator.
type Expr interface{ Eval(env int) int }

type sel struct {
	In   Op
	Pred Expr
}

func (s sel) Children() []Op               { return []Op{s.In} }
func (s sel) MapChildren(f func(Op) Op) Op { s.In = f(s.In); return s }

// Eval is the evaluator's own recursion, closures included.
func (s sel) Eval(env int) int {
	each := func() int { return s.In.Eval(env) }
	return each() + s.Pred.Eval(env)
}

// Apply evaluates a nested plan, as sequence functions do.
func (s sel) Apply(plan Op) int { return plan.Eval(0) }

// Eval the function is no evaluator method.
func Eval(s sel) int {
	return s.Eval(0) // want "Op.Eval is the definitional evaluator"
}

func reference(op Op, e Expr) int {
	//nal:reference-engine the caller asked for the oracle
	n := op.Eval(0)
	n += op.Eval(1) //nal:reference-engine the caller asked for the oracle
	//nal:reference-engine
	n += op.Eval(2) // want "annotation needs a reason"
	n += op.Eval(3) // want "Op.Eval is the definitional evaluator"
	return n + e.Eval(0)
}
