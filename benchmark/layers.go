package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	nalquery "nalquery"
	"nalquery/internal/admission"
	"nalquery/internal/algebra"
	"nalquery/internal/core"
	"nalquery/internal/cost"
	"nalquery/internal/dom"
	"nalquery/internal/index"
	"nalquery/internal/normalize"
	"nalquery/internal/stats"
	"nalquery/internal/store"
	"nalquery/internal/translate"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
	"nalquery/internal/xquery"
)

// The traced run. Spans are recorded from this file only: around each
// end-to-end call, and around a stage-by-stage replay of the same input
// through each layer's public functions. Instrumentation inside the engine is
// a later change; until then the replay is checked against the real pipeline
// (same plan count, same chosen plan, same output bytes, and a compile
// coverage between 0.8 and 1.25) so that it cannot drift unnoticed.

const (
	frontEndTexts = 40 // query texts replayed through the front end
	frontEndReps  = 5  // per text, and more where there are few texts:
	frontEndPairs = 60 // at least this many compile/replay pairs in all
	execStmts     = 12 // statements replayed through the executor
	execReps      = 5
	loadReps      = 5
	serveStmts    = 6 // statements served by handler, library and socket
	serveReps     = 20
	hitPathReps   = 200 // spans per side, each around hitPathBatch calls
	hitPathBatch  = 100
	admissionOps  = 200000
	loopShare     = 0.35 // of -seconds: the traced and untraced rounds
)

// world is the engine state the replays run against: the instance's documents
// and an index set built over the same DOM objects, as the engine's own is.
type world struct {
	eng  *nalquery.Engine
	docs map[string]*dom.Document
	ix   map[string]*index.DocIndexes
}

func worldOf(eng *nalquery.Engine) *world {
	w := &world{eng: eng, docs: map[string]*dom.Document{}, ix: map[string]*index.DocIndexes{}}
	for _, uri := range eng.DocumentURIs() {
		d := eng.Document(uri)
		w.docs[uri] = d
		w.ix[uri] = index.Build(d)
	}
	return w
}

// ScanIndex and ValueIndex make world the planner's core.IndexCatalog, the
// way the engine adapts its own snapshot.
func (w *world) ScanIndex(uri string, p xpath.Path) (core.ScanInfo, bool) {
	x := w.ix[uri]
	if x == nil {
		return core.ScanInfo{}, false
	}
	si, ok := x.Scan(p)
	return core.ScanInfo{Index: si.Index, Path: si.Path, Card: si.Card}, ok
}

func (w *world) ValueIndex(uri string, base, rel xpath.Path) (core.ValueInfo, bool) {
	x := w.ix[uri]
	if x == nil {
		return core.ValueInfo{}, false
	}
	vi, ok := x.Value(base, rel)
	return core.ValueInfo{Index: vi.Index, Path: vi.Path, Depth: vi.Depth, Card: vi.Card, ScanCard: vi.ScanCard}, ok
}

// compiled is what the replay of Engine.Compile yields.
type compiled struct {
	op        algebra.Op // the cost-chosen plan
	name      string
	model     *cost.Model
	externals []string
	plans     int
	indexed   int
}

// replay is Engine.Compile stage by stage, one span per stage. It costs the
// plans after index substitution instead of before and after; the work and
// the resulting choice are the same.
func (w *world) replay(tr *tracer, id, text string) (*compiled, error) {
	cat := w.eng.Catalog()

	sp := tr.begin("xquery.parse", id)
	mod, err := xquery.ParseModule(text)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ast := mod.Body
	var params map[string]int
	if len(mod.Externals) > 0 {
		params = map[string]int{}
		for i, name := range mod.Externals {
			params[name] = i
		}
	}
	unordered := false
	if c, ok := ast.(xquery.Call); ok && c.Fn == "unordered" && len(c.Args) == 1 {
		if f, ok := c.Args[0].(xquery.FLWR); ok {
			ast, unordered = f, true
		}
	}

	sp = tr.begin("normalize.normalize", id)
	norm := normalize.NormalizeWithCatalog(ast, cat)
	_ = norm.String() // Query.Normalized
	tr.end(sp)

	sp = tr.begin("translate.translate", id)
	res, err := translate.TranslateParams(norm, cat, params)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	type alt struct {
		name string
		op   algebra.Op
	}
	sp = tr.begin("core.alternatives", id)
	base := core.NewRewriter(res, cat).Alternatives(res.Plan)
	var alts []alt
	for _, a := range base {
		alts = append(alts, alt{a.Name, a.Op})
	}
	if unordered {
		for _, a := range base {
			if a.Name == "nested" {
				continue
			}
			if u, changed := core.ToUnordered(a.Op); changed && core.Validate(u) {
				alts = append(alts, alt{"unordered " + a.Name, u})
			}
		}
	}
	tr.end(sp)

	c := &compiled{externals: mod.Externals}
	sp = tr.begin("core.indexsub", id)
	for _, a := range base {
		if sub, changed := core.SubstituteIndexes(a.Op, w); changed && core.Validate(sub) {
			alts = append(alts, alt{"indexed " + a.Name, sub})
			c.indexed++
		}
	}
	tr.end(sp)

	sp = tr.begin("cost.model_build", id)
	st := make(map[string]*stats.DocStats, len(w.ix))
	for uri, x := range w.ix {
		st[uri] = x.Stats
	}
	c.model = cost.NewModelStats(w.docs, st)
	tr.end(sp)

	sp = tr.begin("cost.plan_all", id)
	best := math.Inf(1)
	for _, a := range alts {
		if est := c.model.Plan(a.op); est.Cost < best {
			best, c.op, c.name = est.Cost, a.op, a.name
		}
	}
	tr.end(sp)
	c.plans = len(alts)
	return c, nil
}

var replayStages = []string{"xquery.parse", "normalize.normalize", "translate.translate",
	"core.alternatives", "core.indexsub", "cost.model_build", "cost.plan_all"}

// sample picks at most k statements, evenly spaced.
func sample(stmts []stmt, k int) []stmt {
	if len(stmts) <= k {
		return stmts
	}
	out := make([]stmt, k)
	for i := range out {
		out[i] = stmts[i*len(stmts)/k]
	}
	return out
}

// frontEnd times Engine.Compile and its replay side by side, per query text,
// alternating which goes first so that neither always finds the documents
// warm in cache.
func frontEnd(tr *tracer, w *world, stmts []stmt, m map[string]metric) error {
	var plans, indexed float64
	var coverage []float64
	texts := sample(stmts, frontEndTexts)
	reps := max(frontEndReps, (frontEndPairs+len(texts)-1)/len(texts))
	for _, s := range texts {
		var c *compiled
		var q *nalquery.Query
		var cerr, rerr error
		for rep := 0; rep < reps; rep++ {
			var compile, replay int
			engine := func() {
				compile = tr.begin("nalquery.compile", s.name)
				q, cerr = w.eng.Compile(s.text)
				tr.end(compile)
			}
			staged := func() {
				replay = tr.begin("replay", s.name)
				c, rerr = w.replay(tr, s.name, s.text)
				tr.end(replay)
			}
			if rep%2 == 0 {
				engine()
				staged()
			} else {
				staged()
				engine()
			}
			if cerr != nil {
				return fmt.Errorf("compile %s: %w", s.name, cerr)
			}
			if rerr != nil {
				return fmt.Errorf("replay %s: %w", s.name, rerr)
			}
			coverage = append(coverage, tr.children(replay)/tr.duration(compile))
		}
		chosen, err := q.Plan("")
		if err != nil {
			return err
		}
		if c.plans != len(q.Plans()) || c.name != chosen.Name {
			return fmt.Errorf("replay of %s drifted from Engine.Compile: %d plans choosing %q, the engine has %d choosing %q",
				s.name, c.plans, c.name, len(q.Plans()), chosen.Name)
		}
		plans += float64(c.plans)
		indexed += float64(c.indexed)
	}
	self := tr.self()
	for _, name := range replayStages {
		m[name+"_us"] = metric{median(self[name]) / 1e3, "us"}
	}
	m["nalquery.compile_us"] = metric{median(self["nalquery.compile"]) / 1e3, "us"}
	m["nalquery.compile_coverage"] = metric{median(coverage), "ratio"}
	m["core.plans_per_query"] = metric{plans / float64(len(texts)), "count"}
	m["core.indexed_plans_per_query"] = metric{indexed / float64(len(texts)), "count"}
	return nil
}

func bindValue(v any) value.Value {
	switch x := v.(type) {
	case string:
		return value.Str(x)
	case int:
		return value.Int(int64(x))
	}
	panic(fmt.Sprintf("benchmark: no binding for %T", v)) // statements are built by this package
}

// execution replays each statement's cost-chosen plan through schema
// resolution and the row iterators, beside the library's Run.
func execution(tr *tracer, w *world, stmts []stmt, out *capture, m map[string]metric) error {
	ctx := context.Background()
	var sum nalquery.Stats
	var outBytes, runs float64
	for _, s := range sample(stmts, execStmts) {
		c, err := w.replay(nil, s.name, s.text)
		if err != nil {
			return fmt.Errorf("replay %s: %w", s.name, err)
		}
		params := make([]value.Value, len(c.externals))
		for i, name := range c.externals {
			params[i] = bindValue(s.binds[name])
		}
		p, err := w.eng.Prepare(s.text)
		if err != nil {
			return fmt.Errorf("prepare %s: %w", s.name, err)
		}
		for rep := 0; rep < execReps; rep++ {
			sp := tr.begin("algebra.resolve", s.name)
			_, native := algebra.ResolveSchema(c.op)
			tr.end(sp)
			if !native {
				return fmt.Errorf("%s: the chosen plan's schema does not resolve", s.name)
			}

			out.reset()
			sp = tr.begin("algebra.execute", s.name)
			actx := algebra.NewCtxWriter(w.docs, out)
			actx.Cards, actx.Params = c.model, params
			algebra.DrainIter(c.op, actx, nil)
			tr.end(sp)
			replayed := bytes.Clone(out.buf)

			var st nalquery.Stats
			out.reset()
			sp = tr.begin("nalquery.run", s.name)
			err := runPrepared(p, append(s.opts(), nalquery.WithStats(&st))...)(out)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("run %s: %w", s.name, err)
			}
			if !bytes.Equal(replayed, out.buf) {
				return fmt.Errorf("replay of %s drifted: its plan yields %d bytes, Prepared.Run %d", s.name, len(replayed), len(out.buf))
			}

			sp = tr.begin("nalquery.typed_items", s.name)
			res, err := p.Run(ctx, s.opts()...)
			if err == nil {
				for {
					if _, ok := res.Next(); !ok {
						break
					}
				}
				err = res.Close()
			}
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("typed run of %s: %w", s.name, err)
			}

			sum.Tuples += st.Tuples
			sum.DocAccesses += st.DocAccesses
			sum.IndexScans += st.IndexScans
			sum.NestedEvals += st.NestedEvals
			sum.MapTuples += st.MapTuples
			outBytes += float64(len(out.buf))
			runs++
		}
	}
	self := tr.self()
	for _, name := range []string{"algebra.resolve", "algebra.execute", "nalquery.run", "nalquery.typed_items"} {
		m[name+"_us"] = metric{median(self[name]) / 1e3, "us"}
	}
	m["algebra.tuples_per_op"] = metric{float64(sum.Tuples) / runs, "count"}
	m["algebra.doc_accesses_per_op"] = metric{float64(sum.DocAccesses) / runs, "count"}
	m["algebra.index_scans_per_op"] = metric{float64(sum.IndexScans) / runs, "count"}
	m["algebra.nested_evals_per_op"] = metric{float64(sum.NestedEvals) / runs, "count"}
	m["algebra.map_tuples_per_op"] = metric{float64(sum.MapTuples) / runs, "count"}
	m["algebra.out_bytes_per_op"] = metric{outBytes / runs, "bytes"}
	return nil
}

// paperFidelity is Sec. 5 as numbers: over q1..q6, the geometric mean of
// nested time over cost-chosen time at two sizes, and the quotient of the
// two. Both sides of each ratio run seconds apart, so machine drift cancels.
func paperFidelity(tr *tracer, seed int64, scale float64, m map[string]metric) error {
	ratio := func(size, reps int) (float64, error) {
		eng := engineOf(corpus(seed, size, 0))
		logs := 0.0
		ids := []string{"q1", "q2", "q3", "q4", "q5", "q6"}
		for _, id := range ids {
			q, err := eng.Compile(nalquery.PaperQueries[id])
			if err != nil {
				return 0, err
			}
			fastest := func(span string, n int, opts ...nalquery.RunOption) (float64, error) {
				best := math.Inf(1)
				for i := 0; i < n; i++ {
					sp := tr.begin(span, fmt.Sprintf("%s@%d", id, size))
					_, err := runBytes(q, opts...)
					tr.end(sp)
					if err != nil {
						return 0, err
					}
					best = min(best, tr.duration(sp))
				}
				return best, nil
			}
			chosen, err := fastest("paper.chosen", 3*reps)
			if err != nil {
				return 0, err
			}
			nested, err := fastest("paper.nested", reps, nalquery.WithPlan("nested"))
			if err != nil {
				return 0, err
			}
			logs += math.Log(nested / chosen)
		}
		return math.Exp(logs / float64(len(ids))), nil
	}
	small, err := ratio(scaled(100, scale, 10), 3)
	if err != nil {
		return err
	}
	large, err := ratio(scaled(400, scale, 40), 1)
	if err != nil {
		return err
	}
	m["paper.nested_over_best_x100"] = metric{small, "ratio"}
	m["paper.nested_over_best_x400"] = metric{large, "ratio"}
	m["paper.speedup_growth"] = metric{large / small, "ratio"}
	return nil
}

// loading replays one document's way into the engine.
func loading(tr *tracer, uri, xml string, m map[string]metric) error {
	var nodes, stored int
	for rep := 0; rep < loadReps; rep++ {
		sp := tr.begin("dom.parse", uri)
		d, err := dom.ParseString(xml, uri)
		tr.end(sp)
		if err != nil {
			return err
		}
		nodes = d.NumNodes()

		sp = tr.begin("stats.analyze", uri)
		st := stats.Analyze(d)
		tr.end(sp)

		sp = tr.begin("index.build", uri)
		index.BuildWith(d, st)
		tr.end(sp)

		var buf bytes.Buffer
		sp = tr.begin("store.save", uri)
		err = store.SaveStats(&buf, d, st)
		tr.end(sp)
		if err != nil {
			return err
		}
		stored = buf.Len()

		sp = tr.begin("store.load", uri)
		_, _, err = store.LoadStats(&buf)
		tr.end(sp)
		if err != nil {
			return err
		}

		eng := nalquery.NewEngine()
		sp = tr.begin("nalquery.load_xml", uri)
		err = eng.LoadXMLString(uri, xml)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	self := tr.self()
	for _, name := range []string{"stats.analyze", "index.build", "store.save", "store.load", "nalquery.load_xml"} {
		m[name+"_us"] = metric{median(self[name]) / 1e3, "us"}
	}
	m["dom.parse_us_per_mb"] = metric{median(self["dom.parse"]) / 1e3 / (float64(len(xml)) / (1 << 20)), "us/MiB"}
	m["dom.nodes"] = metric{float64(nodes), "count"}
	m["store.bytes_per_xml_byte"] = metric{float64(stored) / float64(len(xml)), "ratio"}
	return nil
}

// serving runs the same statement and binding three ways — the handler in
// process, the library's Prepared.Run, and the handler behind a loopback
// socket — and reports the differences; then the plan cache's hit path and
// the admission controller on their own.
func serving(tr *tracer, eng *nalquery.Engine, stmts []stmt, uri string, out *capture, m map[string]metric) (shed int64, err error) {
	srv := newServer(eng)
	h := srv.Handler()
	// The one place sockets appear. Where the sandbox forbids listening, the
	// socket metric reads -1 and the rest of the run stands.
	var ts *httptest.Server
	if ln, lerr := net.Listen("tcp", "127.0.0.1:0"); lerr == nil {
		ts = httptest.NewUnstartedServer(h)
		ts.Listener.Close()
		ts.Listener = ln
		ts.Start()
		defer ts.Close()
	}
	ctx := context.Background()
	var overhead, socket []float64
	var respBytes, runs float64
	timed := func(span, id string, f func() error) (float64, error) {
		sp := tr.begin(span, id)
		err := f()
		tr.end(sp)
		return tr.duration(sp), err
	}
	for i, s := range sample(stmts, serveStmts) {
		name := fmt.Sprintf("s%d", i)
		if err := srv.RegisterPrepared(name, s.text); err != nil {
			return 0, fmt.Errorf("register %s: %w", s.name, err)
		}
		p, err := eng.Prepare(s.text)
		if err != nil {
			return 0, err
		}
		target := "/prepared/" + name
		for j, v := range slices.Sorted(maps.Keys(s.binds)) {
			target += fmt.Sprintf("%c%s", "?&"[min(j, 1)], "var="+url.QueryEscape(fmt.Sprintf("%s=%v", v, s.binds[v])))
		}
		handler := serve(h, http.MethodPost, target, "", http.StatusOK)
		library := runPrepared(p, s.opts()...)
		for rep := 0; rep < serveReps; rep++ {
			out.reset()
			th, err := timed("server.handler", s.name, func() error { return handler(out) })
			if err != nil {
				return 0, err
			}
			served := bytes.Clone(out.buf)
			out.reset()
			tl, err := timed("nalquery.prepared_run", s.name, func() error { return library(out) })
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(served, out.buf) {
				return 0, fmt.Errorf("%s: the handler and Prepared.Run answer differently", s.name)
			}
			overhead = append(overhead, th-tl)
			respBytes += float64(len(served))
			runs++
			if ts == nil {
				continue
			}
			tsock, err := timed("server.socket", s.name, func() error {
				resp, err := ts.Client().Post(ts.URL+target, "text/plain", strings.NewReader(""))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				n, err := io.Copy(io.Discard, resp.Body)
				if err == nil && (resp.StatusCode != http.StatusOK || int(n) != len(served)) {
					err = fmt.Errorf("%s over the socket: status %d, %d bytes", s.name, resp.StatusCode, n)
				}
				return err
			})
			if err != nil {
				return 0, err
			}
			socket = append(socket, tsock-th)
		}
	}
	m["server.handler_us"] = metric{median(tr.self()["server.handler"]) / 1e3, "us"}
	m["server.overhead_us"] = metric{median(overhead) / 1e3, "us"}
	m["server.resp_bytes_per_op"] = metric{respBytes / runs, "bytes"}
	m["server.socket_overhead_us"] = metric{-1, "us"}
	if ts != nil {
		m["server.socket_overhead_us"] = metric{median(socket) / 1e3, "us"}
	}

	// The hit path is what RunText on a cached plan costs beyond Prepared.Run
	// of the same text: a fraction of a microsecond. It is therefore measured
	// on a statement that runs in microseconds on every workload's documents,
	// a batch of calls to a span; behind the workloads' own millisecond
	// statements it is lost in the executor's noise.
	probe := fmt.Sprintf("let $d := doc(%q)\nfor $x in $d/nosuch\nreturn $x", uri)
	p, err := eng.Prepare(probe)
	if err != nil {
		return 0, fmt.Errorf("prepare the hit-path probe: %w", err)
	}
	library, cached := runPrepared(p), runText(eng, probe)
	if err := cached(out); err != nil { // fill the plan cache
		return 0, err
	}
	batch := func(span string, run func(*capture) error) (float64, error) {
		return timed(span, "hit-path probe", func() error {
			for i := 0; i < hitPathBatch; i++ {
				out.reset()
				if err := run(out); err != nil {
					return err
				}
			}
			return nil
		})
	}
	// Each difference is between two batches run back to back, alternating
	// which goes first, so that the machine's drift is in neither.
	var extra []float64
	for rep := 0; rep < hitPathReps; rep++ {
		var direct, viaCache float64
		var err error
		if rep%2 == 0 {
			direct, err = batch("nalquery.prepared_run", library)
		}
		if err == nil {
			viaCache, err = batch("nalquery.run_text", cached)
		}
		if err == nil && rep%2 != 0 {
			direct, err = batch("nalquery.prepared_run", library)
		}
		if err != nil {
			return 0, err
		}
		extra = append(extra, viaCache-direct)
	}
	m["plancache.hit_path_us"] = metric{median(extra) / hitPathBatch / 1e3, "us"}

	adm := admission.New(2, 8)
	sp := tr.begin("admission.acquire_release", fmt.Sprint(admissionOps))
	for i := 0; i < admissionOps; i++ {
		release, err := adm.Acquire(ctx)
		if err != nil {
			return 0, err
		}
		release()
	}
	tr.end(sp)
	m["admission.acquire_release_ns"] = metric{tr.duration(sp) / admissionOps, "ns"}
	return srv.Stat().Admission.Shed + adm.Counters().Shed, nil
}

// traced is the run behind --trace 1: the workload's loop with a span around
// every operation, then the layer replays against the same engine.
func traced(cfg config) (*report, error) {
	start := time.Now()
	in, cleanup, err := begin(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	out := newCapture()
	inst, err := coldStart(in, out)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	m := map[string]metric{}

	// The loop, in alternating untraced and traced rounds: the distance
	// between their medians is what tracing costs, and the engine's own
	// counters over both give the per-operation counts.
	plain := newLoop(in, inst, cfg.seed, out)
	spans := newLoop(in, inst, cfg.seed, out)
	spans.tr = tr
	plain.round(false)
	pc0, ih0, ar0 := inst.eng.PlanCacheStats(), inst.eng.IndexHits(), inst.eng.AnalyzerRuns()
	for begun := time.Now(); ; {
		last := plain.round(true) + spans.round(true)
		if time.Since(begun).Seconds()+last.Seconds() > loopShare*cfg.seconds {
			break
		}
	}
	if err := cmp.Or(plain.cacheErr, spans.cacheErr); err != nil {
		return nil, err
	}
	pc1 := inst.eng.PlanCacheStats()
	ops := float64(plain.timedOps + spans.timedOps)
	hits, misses := float64(pc1.Hits-pc0.Hits), float64(pc1.Misses-pc0.Misses)
	m["plancache.hit_ratio"] = metric{0, "ratio"} // also where no operation consults the cache
	if hits+misses > 0 {
		m["plancache.hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	}
	m["nalquery.compiles_per_op"] = metric{misses / ops, "count"}
	m["server.index_hits_per_op"] = metric{float64(inst.eng.IndexHits()-ih0) / ops, "count"}
	m["server.analyzer_runs_per_op"] = metric{float64(inst.eng.AnalyzerRuns()-ar0) / ops, "count"}
	p50 := plain.quantile(0.5)
	m["trace.overhead_pct"] = metric{100 * (spans.quantile(0.5) - p50) / p50, "%"}
	var shed int64
	if inst.srv != nil {
		shed = inst.srv.Stat().Admission.Shed
	}

	w := worldOf(inst.eng)
	if err := frontEnd(tr, w, in.stmts, m); err != nil {
		return nil, err
	}
	if cov := m["nalquery.compile_coverage"].Value; cov < 0.8 || cov > 1.25 {
		return nil, fmt.Errorf("nalquery.compile_coverage is %.3f, outside 0.8-1.25: the replay no longer follows Engine.Compile", cov)
	}
	if err := execution(tr, w, in.stmts, out, m); err != nil {
		return nil, err
	}
	if err := paperFidelity(tr, cfg.seed, cfg.scale, m); err != nil {
		return nil, err
	}
	if err := loading(tr, in.mainURI, in.mainXML, m); err != nil {
		return nil, err
	}
	probeShed, err := serving(tr, inst.eng, in.stmts, in.mainURI, out, m)
	if err != nil {
		return nil, err
	}
	m["admission.shed_total"] = metric{float64(shed + probeShed), "count"}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.out, "trace-"+cfg.workload+".json")); err != nil {
		return nil, err
	}
	spans.attempted += plain.attempted
	spans.failed += plain.failed
	if spans.firstFail == "" {
		spans.firstFail = plain.firstFail
	}
	rep := newReport(cfg, true, in, spans)
	rep.Result.Metrics = m
	rep.WallS = time.Since(start).Seconds()
	return rep, nil
}
