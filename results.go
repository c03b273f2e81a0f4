package nalquery

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"iter"
	"runtime/debug"
	"strings"

	"nalquery/internal/algebra"
	"nalquery/internal/value"
)

// RunOption configures one Run of a compiled Query.
type RunOption func(*runConfig)

type runConfig struct {
	plan      string
	reference bool
	stats     *Stats
	binds     []binding
	params    []value.Value // resolved binding table, indexed by parameter slot
	maxBytes  int64
	maxTuples int64
	// faultHook, when set, forces a budget trip at a chosen operator
	// boundary — the deterministic allocation-failure stand-in the fault
	// sweep tests drive (see WithFaultHook in faults_test.go).
	faultHook func(point string) bool
}

// WithPlan selects the plan alternative to run by its paper row label
// ("nested", "grouping", "group Ξ", …). The default — and WithPlan("") —
// is the alternative with the lowest estimated cost.
func WithPlan(name string) RunOption {
	return func(c *runConfig) { c.plan = name }
}

// WithReferenceEngine runs the plan on the definitional materializing
// evaluator over map-based tuples — the executable semantics the slot
// engine is differential-tested against. The whole result is computed
// eagerly on first consumption; items then stream from memory.
func WithReferenceEngine() RunOption {
	return func(c *runConfig) { c.reference = true }
}

// WithStats records the run's final execution counters into st when the
// result stream is exhausted, cancelled, or closed.
func WithStats(st *Stats) RunOption {
	return func(c *runConfig) { c.stats = st }
}

// WithMaxMemory bounds the estimated bytes this run may materialize across
// its pipeline breakers (hash builds, sort buffers, group payloads, dedup
// tables) and its serialized output. Crossing the bound aborts the run with
// a *ResourceError (errors.Is ErrResourceExhausted); the engine and other
// runs are unaffected. n <= 0 means unlimited — the default, which costs
// one nil check per materialized row. The bound is an engine-side estimate
// of materialized state, not a process RSS limit.
func WithMaxMemory(n int64) RunOption {
	return func(c *runConfig) { c.maxBytes = n }
}

// WithMaxTuples bounds the tuples this run may materialize (scans and
// breaker buffers combined). Crossing the bound aborts the run with a
// *ResourceError. n <= 0 means unlimited.
func WithMaxTuples(n int64) RunOption {
	return func(c *runConfig) { c.maxTuples = n }
}

// withFaultHook installs the fault-injection hook consulted at every
// operator boundary; returning true forces a budget trip there. Unexported:
// the deterministic failure harness is test infrastructure, not API.
func withFaultHook(h func(point string) bool) RunOption {
	return func(c *runConfig) { c.faultHook = h }
}

// Run starts one execution of the query and returns its Results session.
// Runs are independent: a compiled Query may be run any number of times,
// from any number of goroutines, concurrently — execution state lives in
// the Results, and the engine snapshot taken at Compile is immutable.
//
// The context cancels the run: scans and pipeline breakers inside the
// engine poll ctx and terminate the pipeline early; the cancellation
// surfaces as Results.Err after the stream ends.
//
// Opening is lazy. The first Next/Seq call fixes the session into typed
// item consumption; calling WriteXML first instead serializes straight
// into the writer with no per-item overhead. Run itself only selects the plan and resolves bindings, so an
// unknown plan name surfaces here as *UnknownPlanError (ErrNoPlan for a
// planless query).
//
// Each run supplies its own bindings, with zero recompilation:
//
//	res, err := q.Run(ctx, nalquery.Bind("minyear", 1993))
//
// Every declared external variable must be bound or Run returns a
// *BindError (ErrUnboundVariable); binding an undeclared name is a
// *BindError too (ErrUnknownVariable), and so is a value Bind cannot
// convert (ErrBindValue).
//
// Run and the Results consumption methods are a panic-recovery boundary:
// an evaluator panic never escapes to the caller — it surfaces as a typed
// *InternalError (errors.Is-matchable against ErrInternal) carrying the
// query text and the captured stack, so a serving process survives a
// poison query.
func (q *Query) Run(ctx context.Context, opts ...RunOption) (*Results, error) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	return q.run(ctx, cfg)
}

// run is the shared session constructor behind Run and Engine.Query (which
// has no options to apply). Like the Results consumption methods it is a
// panic-recovery boundary: any panic below it surfaces as a typed
// *InternalError, never as a crash.
func (q *Query) run(ctx context.Context, cfg runConfig) (res *Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, runPanicError(q.Text, cfg.plan, p)
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := q.Plan(cfg.plan)
	if err != nil {
		return nil, err
	}
	cfg.params, err = q.bindParams(cfg.binds)
	if err != nil {
		return nil, err
	}
	return &Results{q: q, plan: p, ctx: ctx, cfg: cfg}, nil
}

// Results is one running query session: a pull iterator over the typed
// result items the plan's Ξ result-construction operators emit. It is not
// safe for concurrent use by multiple goroutines (run the Query again
// instead — that is safe).
type Results struct {
	q    *Query
	plan Plan
	ctx  context.Context
	cfg  runConfig

	actx    *algebra.Ctx
	pump    *algebra.Pump
	queue   itemQueue
	qpos    int
	opened  bool
	done    bool // the pump is exhausted (trailing queue items may remain)
	closed  bool
	counted bool // engine-level counters accumulated (first end-of-stream wins)
	err     error
}

// itemQueue buffers the items emitted between two pump steps; it is the
// algebra.ResultSink of a typed-consumption session.
type itemQueue struct{ items []Item }

func (s *itemQueue) EmitLit(lit string) {
	s.items = append(s.items, Item{markup: lit})
}

func (s *itemQueue) EmitValue(v value.Value) {
	s.items = append(s.items, Item{v: v, isVal: true})
}

// Plan returns the plan alternative this session runs.
func (r *Results) Plan() Plan { return r.plan }

// newAlgebraCtx builds the per-run evaluation context.
func (r *Results) newAlgebraCtx(out algebra.StringWriter) *algebra.Ctx {
	ctx := algebra.NewCtxWriter(r.q.docs, out)
	ctx.Params = r.cfg.params
	ctx.SetDone(r.ctx.Done())
	if r.cfg.maxBytes > 0 || r.cfg.maxTuples > 0 || r.cfg.faultHook != nil {
		b := algebra.NewBudget(r.cfg.maxBytes, r.cfg.maxTuples)
		b.SetFaultHook(r.cfg.faultHook)
		ctx.Budget = b
	}
	return ctx
}

// openTyped fixes the session into typed item consumption.
func (r *Results) openTyped() {
	r.opened = true
	r.actx = r.newAlgebraCtx(nil)
	r.actx.Sink = &r.queue
	if r.cfg.reference {
		// The reference evaluator materializes; all items queue up front.
		//nal:reference-engine WithReferenceEngine asked for the definitional evaluator: the differential oracle, typed consumption
		r.plan.op.Eval(r.actx, nil)
		r.done = true
		return
	}
	r.pump = r.plan.resolved().Pump(r.actx)
}

// runError converts a recovered evaluator panic into the session's typed
// error.
func (r *Results) runError(p any) error { return runPanicError(r.q.Text, r.plan.Name, p) }

// runPanicError converts a panic recovered at an execution boundary into a
// typed error. A budget trip — the engine's one sanctioned panic, raised
// because the iterator protocol has no error channel — becomes a
// *ResourceError; anything else is a genuine evaluator bug and becomes an
// *InternalError. It must be called from the recovering deferred function,
// where the stack still includes the panic origin.
func runPanicError(query, plan string, p any) error {
	if rt, ok := p.(*algebra.ResourceTrip); ok {
		return resourceError(query, plan, rt)
	}
	return &InternalError{Query: query, Plan: plan, Panic: p, Stack: debug.Stack()}
}

func resourceError(query, plan string, rt *algebra.ResourceTrip) *ResourceError {
	return &ResourceError{Query: query, Plan: plan, Op: rt.Op,
		Bytes: rt.Bytes, Tuples: rt.Tuples,
		MaxBytes: rt.MaxBytes, MaxTuples: rt.MaxTuples}
}

// Next returns the next result item; ok is false when the stream ends —
// because the plan is exhausted, the context was cancelled (check Err), a
// panicking evaluator was recovered into an *InternalError (check Err), or
// the session was closed.
func (r *Results) Next() (item Item, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			r.fail(r.runError(p))
			item, ok = Item{}, false
		}
	}()
	if r.closed || r.err != nil {
		return Item{}, false
	}
	if !r.opened {
		if err := context.Cause(r.ctx); err != nil {
			r.fail(err)
			return Item{}, false
		}
		r.openTyped()
	}
	for r.qpos >= len(r.queue.items) {
		if err := context.Cause(r.ctx); err != nil {
			r.fail(err)
			return Item{}, false
		}
		if r.done {
			r.finish()
			return Item{}, false
		}
		r.queue.items = r.queue.items[:0]
		r.qpos = 0
		if !r.pump.Step() {
			r.done = true
		}
	}
	item = r.queue.items[r.qpos]
	r.qpos++
	return item, true
}

// Seq adapts the session to a range-over-func iterator:
//
//	for item := range res.Seq() { ... }
//
// Breaking out of the range leaves the session open (Close releases it);
// check Err afterwards for cancellation.
func (r *Results) Seq() iter.Seq[Item] {
	return func(yield func(Item) bool) {
		for {
			item, ok := r.Next()
			if !ok {
				return
			}
			if !yield(item) {
				return
			}
		}
	}
}

// WriteXML serializes the remaining result items into w and ends the
// session. Called before any Next/Seq consumption it streams the whole
// run straight into the writer — memory stays bounded by the plan's
// pipeline-breaker state, not the output size — and the bytes equal the
// concatenated XML() of the items a typed consumption would have yielded.
// The error is the context's cancellation cause, a write error, or nil.
func (r *Results) WriteXML(w io.Writer) error {
	if r.closed {
		return r.err
	}
	if !r.opened {
		return r.drainTo(w)
	}
	sw, flush := writerSink(w)
	for {
		item, ok := r.Next()
		if !ok {
			break
		}
		item.writeTo(sw)
	}
	if ferr := flush(); ferr != nil && r.err == nil {
		r.err = ferr
	}
	return r.err
}

// drainTo is the serialize-while-executing fast path: no sink, no item
// queue. An evaluator panic is recovered into the session's *InternalError.
func (r *Results) drainTo(w io.Writer) error {
	r.opened = true
	sw, flush := writerSink(w)
	r.actx = r.newAlgebraCtx(sw)
	perr := func() (perr error) {
		defer func() {
			if p := recover(); p != nil {
				perr = r.runError(p)
			}
		}()
		if r.cfg.reference {
			//nal:reference-engine WithReferenceEngine asked for the definitional evaluator: the differential oracle, serialized consumption
			r.plan.op.Eval(r.actx, nil)
		} else {
			r.plan.resolved().Drain(r.actx)
		}
		return nil
	}()
	r.done = true
	if perr != nil {
		r.fail(perr)
	} else if err := context.Cause(r.ctx); err != nil {
		r.fail(err)
	} else {
		r.finish()
	}
	if ferr := flush(); ferr != nil && r.err == nil {
		r.err = ferr
	}
	return r.err
}

// writerSink views w as the engine's output sink. The engine's writes are
// fire-and-forget (see algebra.StringWriter), so only writers that cannot
// fail — the in-memory builders and io.Discard — are used directly, and a
// caller-provided bufio.Writer keeps its own buffer (its sticky error
// surfaces through flush). Everything else, files included, is buffered
// here with the buffer's sticky write error surfaced by flush.
func writerSink(w io.Writer) (sw algebra.StringWriter, flush func() error) {
	switch s := w.(type) {
	case *strings.Builder:
		return s, func() error { return nil }
	case *bytes.Buffer:
		return s, func() error { return nil }
	case *bufio.Writer:
		return s, s.Flush
	}
	if w == io.Discard {
		return io.Discard.(algebra.StringWriter), func() error { return nil }
	}
	bw := bufio.NewWriter(w)
	return bw, bw.Flush
}

// Err returns the error that ended the stream early: the context's
// cancellation cause or a WriteXML write error. It is nil while the stream
// is live and after a clean exhaustion or Close.
func (r *Results) Err() error { return r.err }

// Stats returns a snapshot of the run's execution counters so far.
func (r *Results) Stats() Stats {
	if r.actx == nil {
		return Stats{}
	}
	return statsOf(r.actx)
}

// Close releases the session's iterator state. Closing mid-stream is the
// supported way to abandon a run early; Close is idempotent and returns
// Err.
func (r *Results) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	r.recordStats()
	r.releasePump()
	r.queue.items = nil
	return r.err
}

// fail ends the stream with err.
func (r *Results) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.recordStats()
	r.releasePump()
}

// finish ends the stream cleanly.
func (r *Results) finish() {
	r.recordStats()
	r.releasePump()
}

// releasePump closes the iterator tree. A plan whose evaluation panicked
// may hold half-open iterator state, so Close itself runs under the
// recovery boundary too: a panic during release is converted (or, after an
// earlier failure, subsumed) instead of escaping through fail/Close.
func (r *Results) releasePump() {
	if r.pump == nil {
		return
	}
	p := r.pump
	r.pump = nil
	defer func() {
		if v := recover(); v != nil && r.err == nil {
			r.err = r.runError(v)
		}
	}()
	p.Close()
}

// recordStats publishes the final counters into the WithStats target. The
// first end-of-stream event wins; later Close calls must not re-copy (the
// algebra context is shared with nothing, but the caller may reuse the
// Stats struct).
func (r *Results) recordStats() {
	if r.actx != nil && !r.counted {
		// Engine-level accumulation (once per session): index hits feed the
		// compiling engine's cumulative counter for /statusz.
		r.counted = true
		if r.q.idxHits != nil && r.actx.Stats.IndexScans > 0 {
			r.q.idxHits.Add(r.actx.Stats.IndexScans)
		}
	}
	if r.cfg.stats != nil && r.actx != nil {
		*r.cfg.stats = statsOf(r.actx)
		r.cfg.stats = nil
	}
}
