// Package nalquery is an order-preserving XQuery processing library
// reproducing May, Helmer and Moerkotte, "Nested Queries and Quantifiers in
// an Ordered Context" (ICDE 2004).
//
// The library parses a subset of XQuery (FLWR expressions, existential and
// universal quantifiers, aggregates, element constructors), translates it
// into NAL — an order-preserving nested algebra — and unnests nested
// algebraic expressions using the paper's equivalences (Fig. 4, Eqvs. 1–9).
// Every query compiles into a set of plan alternatives (nested, outer join,
// grouping, group Ξ, semijoin, anti-semijoin, …) that all produce identical,
// order-correct results but differ — often by orders of magnitude — in cost.
//
// # Quick start
//
//	eng := nalquery.NewEngine()
//	eng.LoadXMLString("bib.xml", `<bib>...</bib>`)
//	q, _ := eng.Compile(`
//	    let $d1 := doc("bib.xml")
//	    for $t1 in $d1//book/title
//	    return <t>{ $t1 }</t>`)
//	res, _ := q.Run(ctx)          // most optimized plan
//	defer res.Close()
//	for item := range res.Seq() { // typed, streaming result items
//	    ...
//	}
//
// A compiled Query is immutable and safe for any number of concurrent Run
// sessions; each Results is a pull iterator over typed items that can be
// cancelled through its context, closed early, or serialized with
// Results.WriteXML.
//
// # Prepared queries
//
// A serving loop compiles once and runs many times: declare external
// variables in the query prolog, Prepare it, and Bind values per run —
// zero recompilation, identical results to compiling the literal text:
//
//	p, _ := eng.Prepare(`
//	    declare variable $minyear external;
//	    let $d1 := doc("bib.xml")
//	    for $b1 in $d1//book
//	    where $b1/@year > $minyear
//	    return $b1/title`)
//	res, _ := p.Run(ctx, nalquery.Bind("minyear", 1993))
//
// The engine core is race-safe: documents live behind copy-on-write
// snapshots, so LoadXML may race Prepare, Query and any number of Runs.
// The convenience paths Engine.Query and Engine.RunText go through a
// bounded LRU plan cache keyed by query text and catalog generation, so
// repeated traffic is compile-once there too. See docs/API.md for the full
// surface.
package nalquery

import (
	"context"
	"errors"
	"io"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"nalquery/internal/algebra"
	"nalquery/internal/core"
	"nalquery/internal/cost"
	"nalquery/internal/dom"
	"nalquery/internal/index"
	"nalquery/internal/normalize"
	"nalquery/internal/schema"
	"nalquery/internal/stats"
	"nalquery/internal/store"
	"nalquery/internal/translate"
	"nalquery/internal/xquery"
)

// engineState is one immutable snapshot of an Engine's documents and schema
// catalog. Writers never mutate a published state: they clone, apply, and
// swap the pointer (copy-on-write), so readers — Compile, Prepare, the plan
// cache, concurrent Runs — work from a consistent snapshot without locks.
type engineState struct {
	docs map[string]*dom.Document
	// aux is the per-document analyzer/index sidecar (measured statistics
	// plus structural and value indexes), keyed like docs and reconciled on
	// every state transition: computed when a document is loaded or
	// replaced, carried over unchanged otherwise. Like docs it is immutable
	// after publication.
	aux map[string]*index.DocIndexes
	// model is the default cost model, a projection of aux's statistics
	// built once per snapshot beside them — a compile reads it and never
	// looks at a document.
	model *cost.Model
	cat   *schema.Catalog
	// gen counts state transitions; it keys the plan cache, so a document
	// load or catalog edit invalidates cached plans for the old state.
	gen uint64
}

// Engine holds documents and schema facts and compiles queries. The engine
// core is safe for concurrent use: loading documents may race Compile,
// Prepare, Query, RunText and any number of Runs — each compilation works
// from the copy-on-write snapshot current when it started, and compiled
// queries keep their snapshot for their whole lifetime.
type Engine struct {
	mu    sync.Mutex // serializes writers; readers load the state pointer
	state atomic.Pointer[engineState]

	cache    planCache
	compiles atomic.Int64 // full compile passes, pinned by the zero-recompile tests

	// analyzerRuns counts document analyses (one per loaded or replaced
	// document); indexHits accumulates IndexScan resolutions across every
	// finished Run of queries compiled by this engine. Both surface on the
	// server's /statusz.
	analyzerRuns atomic.Int64
	indexHits    atomic.Int64
}

// NewEngine creates an Engine pre-loaded with the DTD facts of the paper's
// use-case documents (Fig. 5). Additional facts can be registered through
// Catalog().
func NewEngine() *Engine {
	e := &Engine{}
	e.state.Store(&engineState{docs: map[string]*dom.Document{},
		aux: map[string]*index.DocIndexes{}, model: cost.NewModelStats(nil, nil),
		cat: schema.UseCases()})
	return e
}

// snapshot returns the current immutable state.
func (e *Engine) snapshot() *engineState { return e.state.Load() }

// mutate applies one state transition under the writer lock: clone the
// current snapshot's document map, let mut edit the clone, publish the next
// generation. The catalog pointer is carried over unless mut replaces it.
func (e *Engine) mutate(mut func(st *engineState)) { e.mutateWith(mut, nil) }

// mutateWith is mutate with pre-measured statistics for specific URIs (a
// persisted NALB2 record loaded alongside the document): the sidecar
// reconcile then skips re-measuring those documents.
func (e *Engine) mutateWith(mut func(st *engineState), pre map[string]*stats.DocStats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.state.Load()
	next := &engineState{
		docs: make(map[string]*dom.Document, len(cur.docs)+1),
		aux:  make(map[string]*index.DocIndexes, len(cur.docs)+1),
		cat:  cur.cat,
		gen:  cur.gen + 1,
	}
	for uri, d := range cur.docs {
		next.docs[uri] = d
	}
	mut(next)
	// Reconcile the analyzer/index sidecar with the edited document map: a
	// document object already analyzed keeps its sidecar, a new or replaced
	// one is analyzed and indexed here (one walk), a dropped one loses its
	// entry. Stats and indexes therefore invalidate exactly like the plan
	// cache: any transition that changes a document replaces them — and the
	// cost model derived from them, which costs one pass over the measured
	// paths, not over the documents.
	measured := make(map[string]*stats.DocStats, len(next.docs))
	for uri, d := range next.docs {
		if cur.docs[uri] == d && cur.aux[uri] != nil {
			next.aux[uri] = cur.aux[uri]
		} else {
			next.aux[uri] = index.BuildWith(d, pre[uri])
			e.analyzerRuns.Add(1)
		}
		measured[uri] = next.aux[uri].Stats
	}
	next.model = cost.NewModelStats(next.docs, measured)
	e.state.Store(next)
}

// LoadXML parses and registers a document under the given URI.
func (e *Engine) LoadXML(uri string, r io.Reader) error {
	d, err := dom.Parse(r, uri)
	if err != nil {
		return err
	}
	e.mutate(func(st *engineState) { st.docs[uri] = d })
	return nil
}

// LoadXMLString parses and registers a document from a string.
func (e *Engine) LoadXMLString(uri, s string) error {
	return e.LoadXML(uri, strings.NewReader(s))
}

// LoadDocument registers an already-built document (e.g. from the synthetic
// generators of internal/xmlgen).
func (e *Engine) LoadDocument(d *dom.Document) {
	e.mutate(func(st *engineState) { st.docs[d.URI] = d })
}

// LoadStoreFile loads a document from a binary store file (the .nalb format
// of internal/store) and registers it under the given URI. A version-2 file
// carries the analyzer's statistics; they are adopted instead of re-measured.
func (e *Engine) LoadStoreFile(uri, path string) error {
	d, ds, err := store.LoadFileStats(path)
	if err != nil {
		return err
	}
	d.URI = uri
	var pre map[string]*stats.DocStats
	if ds != nil {
		ds.URI = uri
		pre = map[string]*stats.DocStats{uri: ds}
	}
	e.mutateWith(func(st *engineState) { st.docs[uri] = d }, pre)
	return nil
}

// Document returns a registered document, or nil.
func (e *Engine) Document(uri string) *dom.Document { return e.snapshot().docs[uri] }

// DocumentURIs lists the URIs of the registered documents, sorted.
func (e *Engine) DocumentURIs() []string {
	docs := e.snapshot().docs
	uris := make([]string, 0, len(docs))
	for uri := range docs {
		uris = append(uris, uri)
	}
	sort.Strings(uris)
	return uris
}

// Catalog returns the current schema-fact catalog used to verify the side
// conditions of the condition-bearing equivalences (3, 5, 8, 9). Fact
// lookups through it (Has, SingletonPath, SameNodeSet, …) are cheap and
// safe alongside concurrent compilations. Beware that Doc is get-or-create:
// on an unregistered URI it mutates the live snapshot, as does registering
// facts through the handle — fine for single-threaded setup (the
// historical pattern), but it may race concurrent compilations and does
// not invalidate cached plans. Use EditCatalog for the race-safe,
// cache-coherent edit path.
func (e *Engine) Catalog() *schema.Catalog { return e.snapshot().cat }

// EditCatalog applies edit to a copy-on-write clone of the catalog and
// installs the clone as the engine's current catalog. In-flight
// compilations keep reading the old snapshot (edits may race Prepare, Query
// and Runs cleanly), and the generation moves, so the plan cache drops
// plans derived under the old facts.
func (e *Engine) EditCatalog(edit func(*schema.Catalog)) {
	e.mutate(func(st *engineState) {
		st.cat = st.cat.Clone()
		edit(st.cat)
	})
}

// Stats reports execution counters of one plan run.
type Stats struct {
	// DocAccesses counts doc()/document() evaluations — each is a fresh
	// traversal of a stored document (the paper's "scans").
	DocAccesses int64
	// NestedEvals counts evaluations of nested algebraic expressions
	// (nested-loop iterations).
	NestedEvals int64
	// Tuples counts tuples produced by scan operators.
	Tuples int64
	// IndexScans counts scans answered from a structural or value index
	// (one per IndexScan open) instead of a document traversal. Plans
	// without substituted index scans report 0.
	IndexScans int64
	// MapTuples is always 0: the engine has no map-tuple path a plan could
	// fall back to any more (a plan it cannot type is refused with an
	// *InternalError). The field remains for programs that read it.
	MapTuples int64
	// BudgetBytes and BudgetTuples are the run's resource-budget charge
	// counters (see WithMaxMemory/WithMaxTuples). Both are 0 when the run
	// carries no budget — accounting is then disabled entirely.
	BudgetBytes  int64
	BudgetTuples int64
}

// Plan is one compiled plan alternative.
type Plan struct {
	// Name is the paper's row label: "nested", "outer join", "grouping",
	// "group Ξ", "semijoin", "anti-semijoin", "binary grouping".
	Name string
	// Applied lists the unnesting equivalences used to derive the plan.
	Applied []string
	// EstimatedCost is the cost model's estimate over the loaded documents'
	// statistics. Lower is better; nested plans carry the quadratic term.
	EstimatedCost float64

	op algebra.Op
	// tree holds the plan's resolved operator tree. Copies of the Plan share
	// it; a Plan built outside Compile has none and resolves per run.
	tree *planTree
}

// planTree is a plan's resolved operator tree, built on the plan's first run
// (an alternative that never runs is never resolved) and immutable after.
type planTree struct {
	once sync.Once
	root *algebra.Node
}

// resolved returns the plan's resolved operator tree.
func (p Plan) resolved() *algebra.Node {
	if p.tree == nil {
		return algebra.Resolve(p.op)
	}
	p.tree.once.Do(func() { p.tree.root = algebra.Resolve(p.op) })
	return p.tree.root
}

// Explain renders the plan's operator tree.
func (p Plan) Explain() string { return algebra.Explain(p.op) }

// ExplainDot renders the plan's operator tree in Graphviz dot syntax;
// nested algebraic expressions appear as dashed edges.
func (p Plan) ExplainDot() string { return algebra.ExplainDot(p.op) }

// Query is a compiled query with its plan alternatives. A Query is
// immutable: it carries a snapshot of the engine's documents and catalog
// taken at Compile, so any number of Run sessions may execute concurrently
// (per-run state lives in each Results).
type Query struct {
	// Text is the original query.
	Text string
	// Normalized is the normalized source form (Sec. 3).
	Normalized string

	docs   map[string]*dom.Document // immutable snapshot taken at Compile
	model  *cost.Model
	plans  []Plan
	params []string // external variable names, in parameter-slot order
	// idxHits, when non-nil, receives each finished run's IndexScans count
	// (the compiling engine's cumulative index-hit counter).
	idxHits *atomic.Int64
}

// Vars returns the names of the query's external variables
// ("declare variable $x external;") in declaration order. Every one of them
// must be bound with Bind on each Run.
func (q *Query) Vars() []string {
	return append([]string(nil), q.params...)
}

func statsOf(ctx *algebra.Ctx) Stats {
	st := Stats{
		DocAccesses: ctx.Stats.DocAccesses,
		NestedEvals: ctx.Stats.NestedEvals,
		Tuples:      ctx.Stats.Tuples,
		IndexScans:  ctx.Stats.IndexScans,
	}
	if b := ctx.Budget; b != nil {
		st.BudgetBytes = b.Bytes()
		st.BudgetTuples = b.Tuples()
	}
	return st
}

// Compile parses, normalizes, translates and unnests a query, producing all
// plan alternatives, and prices them under the snapshot's cost model — the
// one built from the analyzer's statistics of the loaded documents. The
// returned Query snapshots the engine's current document set and catalog;
// later Load calls do not affect it. Syntax errors are *ParseError values
// carrying the source line. A query may declare external variables
// ("declare variable $x external;"); they compile into typed parameter
// expressions bound per Run.
func (e *Engine) Compile(text string) (*Query, error) {
	return e.compileState(e.snapshot(), text)
}

// compilePanicHook, when non-nil, runs at the top of every compile — the
// injection point for the backstop's own regression test (the same idiom as
// runConfig.faultHook on the execution side).
var compilePanicHook func()

// compileState runs the full compilation pipeline against one immutable
// engine snapshot. Like Run, it is a panic boundary: a panicking
// normalizer/translator/rewriter fails its own compile with a typed
// *InternalError instead of taking the process down.
func (e *Engine) compileState(st *engineState, text string) (q *Query, err error) {
	defer func() {
		if p := recover(); p != nil {
			q, err = nil, &InternalError{Query: text, Panic: p, Stack: debug.Stack()}
		}
	}()
	e.compiles.Add(1)
	if compilePanicHook != nil {
		compilePanicHook()
	}
	cat := st.cat
	mod, err := xquery.ParseModule(text)
	if err != nil {
		var pe *xquery.ParseError
		if errors.As(err, &pe) {
			return nil, &ParseError{Line: pe.Line, Col: pe.Col, Msg: pe.Msg}
		}
		return nil, err
	}
	ast := mod.Body
	// External variables get their parameter slots in declaration order;
	// translation compiles references to them into algebra.Param reads of
	// the per-run binding table.
	var params map[string]int
	if len(mod.Externals) > 0 {
		params = make(map[string]int, len(mod.Externals))
		for i, name := range mod.Externals {
			params[name] = i
		}
	}
	// A top-level unordered(FLWR) wrapper releases the order requirement
	// (Sec. 1). The wrapper is stripped before normalization, so the query
	// gets exactly the plans of the FLWR it wraps — left in place, the
	// unordered builtin would be an un-unnestable call with only a nested
	// plan.
	if c, ok := ast.(xquery.Call); ok && c.Fn == "unordered" && len(c.Args) == 1 {
		if f, isFLWR := c.Args[0].(xquery.FLWR); isFLWR {
			ast = f
		}
	}
	norm := normalize.NormalizeWithCatalog(ast, cat)
	res, err := translate.TranslateParams(norm, cat, params)
	if err != nil {
		var te *translate.Error
		if errors.As(err, &te) {
			return nil, &TranslateError{Msg: te.Msg}
		}
		return nil, err
	}
	rw := core.NewRewriter(res, cat)
	alts := rw.Alternatives(res.Plan)
	// The per-query snapshot: the state's document map is copy-on-write and
	// never mutated after publication, so the query references it directly —
	// concurrent Run sessions read it while the engine keeps loading into
	// future snapshots.
	model := st.model
	q = &Query{Text: text, Normalized: norm.String(), docs: st.docs, model: model,
		params: mod.Externals, idxHits: &e.indexHits}
	for _, a := range alts {
		est := model.Plan(a.Op)
		q.plans = append(q.plans, Plan{
			Name: a.Name, Applied: a.Applied, EstimatedCost: est.Cost, op: a.Op,
		})
	}
	// Offer an index-substituted counterpart of every alternative whose
	// document scans resolve onto the snapshot's indexes. The base plans
	// stay on offer: the model prices each probe at its measured
	// cardinality, and the cheaper plan wins the empty-name selection.
	if len(st.aux) > 0 {
		icat := indexCat{aux: st.aux}
		for _, a := range alts {
			sub, changed := core.SubstituteIndexes(a.Op, icat)
			if !changed || !core.Validate(sub) {
				continue
			}
			est := model.Plan(sub)
			q.plans = append(q.plans, Plan{
				Name:          "indexed " + a.Name,
				Applied:       append(append([]string{}, a.Applied...), "index-scan"),
				EstimatedCost: est.Cost,
				op:            sub,
			})
		}
	}
	trees := make([]planTree, len(q.plans))
	for i := range q.plans {
		q.plans[i].tree = &trees[i]
	}
	return q, nil
}

// Plans returns the plan alternatives, from the nested baseline to the most
// optimized plan.
func (q *Query) Plans() []Plan { return q.plans }

// Plan returns the alternative with the given name; the empty name selects
// the plan with the lowest estimated cost. A query without alternatives
// returns ErrNoPlan; an unmatched name returns an *UnknownPlanError
// (errors.Is-matchable against ErrUnknownPlan).
func (q *Query) Plan(name string) (Plan, error) {
	if len(q.plans) == 0 {
		return Plan{}, ErrNoPlan
	}
	if name == "" {
		best := q.plans[0]
		for _, p := range q.plans[1:] {
			if p.EstimatedCost < best.EstimatedCost {
				best = p
			}
		}
		return best, nil
	}
	for _, p := range q.plans {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, len(q.plans))
	for i, p := range q.plans {
		names[i] = p.Name
	}
	return Plan{}, &UnknownPlanError{Name: name, Have: names}
}

// cachedCompile resolves text through the bounded LRU plan cache, keyed by
// the query text and the catalog/document generation of the current
// snapshot: repeated traffic for the same text compiles once per engine
// state, and any Load or Catalog edit invalidates by moving the generation.
func (e *Engine) cachedCompile(text string) (*Query, error) {
	st := e.snapshot()
	if q, ok := e.cache.get(text, st.gen); ok {
		return q, nil
	}
	q, err := e.compileState(st, text)
	if err != nil {
		return nil, err
	}
	e.cache.put(text, st.gen, q)
	return q, nil
}

// Query is the one-shot convenience API: compile and execute with the most
// optimized plan. Compilation goes through the engine's plan cache, so
// repeated calls with the same text under an unchanged document set and
// catalog pay for parsing, unnesting and costing only once.
func (e *Engine) Query(text string) (string, error) {
	q, err := e.cachedCompile(text)
	if err != nil {
		return "", err
	}
	res, err := q.run(context.Background(), runConfig{})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := res.WriteXML(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// RunText compiles text through the plan cache and starts one Run session
// with the given options — the convenience twin of Prepare for callers that
// hold query text per request: under repeated traffic the compile amortizes
// exactly like a Prepared, including external-variable queries (pass Bind
// options). The Results session has the usual semantics (typed items,
// WriteXML, cancellation through ctx).
func (e *Engine) RunText(ctx context.Context, text string, opts ...RunOption) (*Results, error) {
	q, err := e.cachedCompile(text)
	if err != nil {
		return nil, err
	}
	return q.Run(ctx, opts...)
}
