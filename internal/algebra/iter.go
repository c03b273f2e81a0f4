package algebra

import (
	"nalquery/internal/value"
)

// This file is the entry to the one streaming engine: plans execute on the
// slot-based row engine of rowiter.go. A caller that runs a plan more than
// once resolves it once (Resolve) and opens the tree per run (Node.Pump,
// Node.Drain); the Op-taking entry points (OpenIter, RunIter, DrainIter,
// OpenPump) resolve and open in one step, and the map-tuple ones convert
// rows for callers that ask for tuples. There is no second executor: an
// operator without a slot-native schema is materialized once by the
// definitional evaluator (evalIter) and its result streamed.

// Iterator is the pull-based physical operator interface (open-next-close),
// the execution model of the Natix engine the paper evaluates on ("NAL is
// close to our physical algebra", Sec. 1), at the map-tuple API boundary.
type Iterator interface {
	// Next returns the next tuple of the sequence; ok is false at the end.
	Next() (t value.Tuple, ok bool)
	// Close releases resources. Close is idempotent.
	Close()
}

// OpenIter opens a plan under the given context and free-variable
// environment and yields its result as map tuples. A natively resolved root
// executes on the row engine, with map tuples materialized only at this
// boundary; any other root is evaluated definitionally (re-typing its
// tuples as rows only to convert them back would be a pure round trip).
func OpenIter(op Op, ctx *Ctx, env value.Tuple) Iterator {
	if n := Resolve(op); n.OK && n.Schema.Native {
		return &rowTupleAdapter{in: n.open(ctx, env)}
	}
	return evalIter(op, ctx, env)
}

// rowTupleAdapter converts the row engine's output to map tuples at the
// iterator API boundary.
type rowTupleAdapter struct{ in RowIter }

func (a *rowTupleAdapter) Next() (value.Tuple, bool) {
	r, ok := a.in.Next()
	if !ok {
		return nil, false
	}
	return r.Tuple(), true
}

func (a *rowTupleAdapter) Close() { a.in.Close() }

// evalIter is the engine's one fallback for an operator the slot engine
// cannot type (unknown operator extensions, colliding layouts, µD over an
// untracked payload): the whole subtree materializes once through the
// definitional evaluator — which charges the budget and polls cancellation
// itself — and the result streams from the slice. Each use counts in
// Stats.ShimOps.
func evalIter(op Op, ctx *Ctx, env value.Tuple) *sliceIter {
	ctx.Stats.ShimOps++
	return &sliceIter{ts: op.Eval(ctx, env)}
}

type sliceIter struct {
	ts  value.TupleSeq
	pos int
}

func (s *sliceIter) Next() (value.Tuple, bool) {
	if s.pos >= len(s.ts) {
		return nil, false
	}
	t := s.ts[s.pos]
	s.pos++
	return t, true
}

func (s *sliceIter) Close() { s.ts = nil }

// RunIter drains a plan through the iterator engine and returns the
// materialized result (for comparison and for callers that need the whole
// sequence anyway). Side effects (Ξ output) happen while streaming.
func RunIter(op Op, ctx *Ctx, env value.Tuple) value.TupleSeq {
	it := OpenIter(op, ctx, env)
	defer it.Close()
	var out value.TupleSeq
	for {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// DrainIter pulls a plan to completion discarding tuples: Resolve, then
// Node.Drain.
func DrainIter(op Op, ctx *Ctx, env value.Tuple) {
	Resolve(op).Drain(ctx, env)
}

// Drain pulls the resolved plan to completion discarding tuples — the
// execution mode of a top-level query, where the Ξ side effects are the
// result. On a natively resolved plan no map tuple is ever materialized. A
// cancellation signal wired into ctx (SetDone) terminates the drain early.
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

// OpenPump opens the row-iterator tree of a plan for step-wise driving:
// Resolve, then Node.Pump.
func OpenPump(op Op, ctx *Ctx, env value.Tuple) *Pump {
	return Resolve(op).Pump(ctx, env)
}

// Pump opens the row-iterator tree of the resolved plan — the same dispatch
// as OpenIter, minus the map tuples.
func (n *Node) Pump(ctx *Ctx, env value.Tuple) *Pump {
	if !n.OK {
		// No layout to type the root's tuples under; the pump discards its
		// rows anyway, so the shim re-types them under the empty one.
		return &Pump{rit: &tupleRowIter{in: evalIter(n.Op, ctx, env), lay: value.NewLayout(), ctx: ctx}}
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
