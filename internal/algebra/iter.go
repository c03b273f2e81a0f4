package algebra

import (
	"nalquery/internal/value"
)

// This file is the map-tuple boundary of the one streaming engine: plans
// execute on the slot-based row engine of rowiter.go, and the entry points
// here open a plan, drive it, and convert rows to map tuples for callers
// that ask for them. There is no second executor: an operator without a
// slot-native schema is materialized once by the definitional evaluator
// (evalIter) and its result streamed.

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
// environment and yields its result as map tuples. Plans whose schema
// resolves natively (see ResolveSchema) execute on the row engine, with map
// tuples materialized only at this boundary; any other root is evaluated
// definitionally (re-typing its tuples as rows only to convert them back
// would be a pure round trip).
func OpenIter(op Op, ctx *Ctx, env value.Tuple) Iterator {
	if sc, ok := ResolveSchema(op); ok && sc.Native {
		return &rowTupleAdapter{in: openRowsSchema(op, sc, ctx, env)}
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

// DrainIter pulls a plan to completion discarding tuples — the execution
// mode of a top-level query, where the Ξ side effects are the result. On
// a natively resolved plan no map tuple is ever materialized. A
// cancellation signal wired into ctx (SetDone) terminates the drain early.
func DrainIter(op Op, ctx *Ctx, env value.Tuple) {
	p := OpenPump(op, ctx, env)
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

// OpenPump opens the row-iterator tree of a plan for step-wise driving —
// the same dispatch as OpenIter, minus the map tuples.
func OpenPump(op Op, ctx *Ctx, env value.Tuple) *Pump {
	sc, ok := ResolveSchema(op)
	if !ok {
		// No layout to type the root's tuples under; the pump discards its
		// rows anyway, so the fallback re-types them under the empty one.
		sc = Schema{Lay: value.NewLayout()}
	}
	return &Pump{rit: openRowsSchema(op, sc, ctx, env)}
}

// Step advances the plan by one root tuple; false means the plan is
// exhausted (or the run was cancelled).
func (p *Pump) Step() bool {
	_, ok := p.rit.Next()
	return ok
}

// Close releases the iterator state. Close is idempotent.
func (p *Pump) Close() { p.rit.Close() }
