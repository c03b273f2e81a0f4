package algebra

import (
	"nalquery/internal/value"
)

// This file is the entry to the one streaming engine: plans execute on the
// slot-based row engine of rowiter.go. A caller that runs a plan more than
// once resolves it once (Resolve) and opens the tree per run (Node.Pump,
// Node.Drain); the Op-taking entry points (RunIter, DrainIter) resolve and
// open in one step. There is no second executor and no fallback: a plan the
// resolver cannot type is refused when it is opened.

// RunIter runs a plan on the row engine — the open-next-close execution
// model of the Natix engine the paper evaluates on ("NAL is close to our
// physical algebra", Sec. 1) — and returns its result as map tuples,
// materialized only at this boundary (for comparison with Eval). Side
// effects (Ξ output) happen while streaming.
func RunIter(op Op, ctx *Ctx, env value.Tuple) value.TupleSeq {
	p := Resolve(op).Pump(ctx, env)
	defer p.Close()
	var out value.TupleSeq
	for {
		r, ok := p.rit.Next()
		if !ok {
			return out
		}
		out = append(out, r.Tuple())
	}
}

// DrainIter pulls a plan to completion discarding tuples: Resolve, then
// Node.Drain.
func DrainIter(op Op, ctx *Ctx, env value.Tuple) {
	Resolve(op).Drain(ctx, env)
}

// Drain pulls the resolved plan to completion discarding tuples — the
// execution mode of a top-level query, where the Ξ side effects are the
// result. A cancellation signal wired into ctx (SetDone) terminates the drain
// early.
func (n *Node) Drain(ctx *Ctx, env value.Tuple) {
	p := n.Pump(ctx, env)
	defer p.Close()
	for p.Step() {
		if ctx.Cancelled() {
			return
		}
	}
}

// Pump is a running plan that advances one root tuple per Step. The Ξ side
// effects — serialized text on ctx.Out, or items on ctx.Sink — happen
// while stepping; Pump itself discards the tuples. It is the drive shaft
// of the public Results iterator: opening the pump may already emit items
// (pipeline breakers below the root Ξ materialize at open), each Step may
// emit zero or more.
type Pump struct {
	rit RowIter
}

// Pump opens the row-iterator tree of the resolved plan. It is where a plan
// the resolver could not type is refused: nothing has run, and the panic
// names the operator without schema.
func (n *Node) Pump(ctx *Ctx, env value.Tuple) *Pump {
	if !n.OK {
		//nal:allow-panic only a hand-built plan can be untypable (every compiled plan resolves); Run/Results recover this into *InternalError before any output
		panic("algebra: cannot run the plan: no slot schema for operator " + n.unresolved().Op.String())
	}
	return &Pump{rit: n.open(ctx, env)}
}

// Step advances the plan by one root tuple; false means the plan is
// exhausted (or the run was cancelled).
func (p *Pump) Step() bool {
	_, ok := p.rit.Next()
	return ok
}

// Close releases the iterator state. Close is idempotent.
func (p *Pump) Close() { p.rit.Close() }
