// Package server implements nalserved's HTTP query service on the
// prepared-query core, with robustness as the design axis:
//
//   - admission control: a bounded in-flight-run semaphore plus a bounded
//     wait queue (internal/admission); with the queue full the server
//     sheds load with 429/Retry-After instead of collapsing, and exposes
//     the shed/queued/active counters on /statusz.
//   - deadline propagation: per-request timeouts (X-Nalquery-Timeout
//     header or ?timeout=, capped server-side) ride the engine's context
//     cancellation plumbing, so a slow query costs one slot for a bounded
//     time.
//   - panic isolation: the library converts evaluator panics into typed
//     *nalquery.InternalError at the Run/Results boundary; a recover
//     middleware backstops handler bugs. Either way one poison request
//     answers 500 while the process keeps serving.
//   - graceful lifecycle: /healthz + /readyz, and a Drain sequence (stop
//     admitting, finish in-flight runs within the drain budget, cancel
//     stragglers) driven by SIGTERM in cmd/nalserved.
//
// Responses stream through a spill buffer: a run that fails early still
// gets a proper error status and body, while large results switch to
// streaming instead of buffering whole.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	nalquery "nalquery"
	"nalquery/internal/admission"
	"nalquery/internal/cli"
)

// Server is the HTTP query service. Construct with New; all exported
// methods and the Handler are safe for concurrent use.
type Server struct {
	cfg Config
	eng *nalquery.Engine
	adm *admission.Controller
	log *log.Logger

	mu       sync.Mutex
	prepared map[string]*nalquery.Prepared

	// baseCtx parents every admitted run; cancelRuns fires it when the
	// drain budget expires, cancelling stragglers through the engine's
	// context plumbing.
	baseCtx    context.Context
	cancelRuns context.CancelCauseFunc

	spills sync.Pool // spent response buffers, *spillWriter (getSpill)

	ready    atomic.Bool
	started  time.Time
	panics   atomic.Int64 // handler panics caught by the recover middleware
	internal atomic.Int64 // evaluator panics surfaced as *InternalError
	timeouts atomic.Int64 // runs ended by deadline expiry
	resource atomic.Int64 // runs ended by resource-budget exhaustion
}

// New builds a Server over an engine (documents already loaded or loaded
// later through the API). logger may be nil for log.Default().
func New(eng *nalquery.Engine, cfg Config, logger *log.Logger) *Server {
	cfg = cfg.withDefaults()
	if logger == nil {
		logger = log.Default()
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		eng:        eng,
		adm:        admission.New(cfg.MaxInFlight, cfg.MaxQueue),
		log:        logger,
		prepared:   map[string]*nalquery.Prepared{},
		baseCtx:    ctx,
		cancelRuns: cancel,
		started:    time.Now(),
	}
	s.ready.Store(true)
	return s
}

// Engine returns the underlying engine (for setup code in cmd/nalserved
// and the benchmarks).
func (s *Server) Engine() *nalquery.Engine { return s.eng }

// RegisterPrepared compiles text as a named prepared statement, replacing
// any previous statement of that name.
func (s *Server) RegisterPrepared(name, text string) error {
	p, err := s.eng.Prepare(text)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.prepared[name] = p
	s.mu.Unlock()
	return nil
}

// lookupPrepared returns the named statement, or nil.
func (s *Server) lookupPrepared(name string) *nalquery.Prepared {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prepared[name]
}

// Handler returns the service's HTTP handler tree, wrapped in the
// panic-recovery middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /prepared", s.handlePreparedList)
	mux.HandleFunc("PUT /prepared/{name}", s.handlePreparedPut)
	mux.HandleFunc("DELETE /prepared/{name}", s.handlePreparedDelete)
	mux.HandleFunc("POST /prepared/{name}", s.handlePreparedRun)
	mux.HandleFunc("GET /documents", s.handleDocumentsList)
	mux.HandleFunc("GET /documents/{uri...}", s.handleDocumentStats)
	mux.HandleFunc("POST /documents/{uri...}", s.handleDocumentPut)
	mux.HandleFunc("POST /gen", s.handleGen)
	if s.cfg.Debug {
		mux.HandleFunc("POST /debug/panic", s.handleDebugPanic)
	}
	return s.recoverPanics(mux)
}

// recoverPanics is the outermost robustness boundary: a panic in any
// handler — including the deliberate /debug/panic probe — answers 500 and
// leaves the process serving. http.ErrAbortHandler passes through (it is
// the sanctioned way to abort a committed response).
func (s *Server) recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				s.panics.Add(1)
				s.log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				// Best effort: if the response is already committed this
				// header write is a no-op and the client sees truncation.
				writeError(w, http.StatusInternalServerError, "internal",
					fmt.Sprintf("internal error: %v", p))
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// --- health & status ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

// Status is the machine-readable operational snapshot served at /statusz.
type Status struct {
	UptimeSeconds     float64            `json:"uptime_seconds"`
	Ready             bool               `json:"ready"`
	MaxInFlight       int                `json:"max_in_flight"`
	MaxQueue          int                `json:"max_queue"`
	Admission         admission.Counters `json:"admission"`
	HandlerPanics     int64              `json:"handler_panics"`
	InternalErrors    int64              `json:"internal_errors"`
	Timeouts          int64              `json:"timeouts"`
	ResourceExhausted int64              `json:"resource_exhausted"`
	Documents         int                `json:"documents"`
	Prepared          int                `json:"prepared"`
	AnalyzerRuns      int64              `json:"analyzer_runs"`
	IndexHits         int64              `json:"index_hits"`
}

// Stat returns the current operational snapshot (the /statusz payload).
func (s *Server) Stat() Status {
	s.mu.Lock()
	nprep := len(s.prepared)
	s.mu.Unlock()
	maxIF, maxQ := s.adm.Capacity()
	return Status{
		UptimeSeconds:     time.Since(s.started).Seconds(),
		Ready:             s.ready.Load(),
		MaxInFlight:       maxIF,
		MaxQueue:          maxQ,
		Admission:         s.adm.Counters(),
		HandlerPanics:     s.panics.Load(),
		InternalErrors:    s.internal.Load(),
		Timeouts:          s.timeouts.Load(),
		ResourceExhausted: s.resource.Load(),
		Documents:         len(s.eng.DocumentURIs()),
		Prepared:          nprep,
		AnalyzerRuns:      s.eng.AnalyzerRuns(),
		IndexHits:         s.eng.IndexHits(),
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stat())
}

// --- documents ---

func (s *Server) handleDocumentsList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.eng.DocumentURIs())
}

// handleDocumentStats serves GET /documents/{uri}/stats: the analyzer's
// measured per-path statistics of a loaded document. (The trailing /stats is
// part of the wildcard because ServeMux patterns cannot follow a "..."
// segment with more literals.)
func (s *Server) handleDocumentStats(w http.ResponseWriter, r *http.Request) {
	p := r.PathValue("uri")
	uri, ok := strings.CutSuffix(p, "/stats")
	if !ok || uri == "" {
		writeError(w, http.StatusNotFound, "request", "want GET /documents/{uri}/stats")
		return
	}
	ds, ok := s.eng.DocumentStats(uri)
	if !ok {
		writeError(w, http.StatusNotFound, "request", fmt.Sprintf("no document %q", uri))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(ds)
}

// uploadReserve is the most an upload's declared length reserves before its
// bytes arrive, so a client that declares a large body and sends none pins
// at most this much; a longer body grows its buffer as it arrives.
const uploadReserve = 1 << 20

// handleDocumentPut loads an uploaded document. The body is read once, into
// one buffer sized by Content-Length when the client sent one (up to
// uploadReserve), and parsed in place (LoadXMLString); a declared length
// above MaxBodyBytes answers 413 before a byte is read, and a chunked body
// grows its buffer as it arrives, under the same cap.
func (s *Server) handleDocumentPut(w http.ResponseWriter, r *http.Request) {
	uri := r.PathValue("uri")
	if uri == "" {
		writeError(w, http.StatusBadRequest, "request", "missing document uri")
		return
	}
	if s.declaredTooLarge(w, r, "document") {
		return
	}
	var sb strings.Builder
	sb.Grow(int(min(max(r.ContentLength, 0), uploadReserve)))
	if _, err := io.Copy(&sb, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		s.writeBodyError(w, err, "document")
		return
	}
	if err := s.eng.LoadXMLString(uri, sb.String()); err != nil {
		writeError(w, http.StatusBadRequest, "parse", fmt.Sprintf("parse %s: %v", uri, err))
		return
	}
	w.WriteHeader(http.StatusCreated)
	fmt.Fprintf(w, "loaded %s\n", uri)
}

// handleGen loads the synthetic use-case corpus (plus the DBLP-like
// document) at ?size=N&apb=M — the load-test fixture endpoint. A book names
// each of its M authors once from a pool of N, so M is at most N; it
// defaults to 2, or 1 at size 1.
func (s *Server) handleGen(w http.ResponseWriter, r *http.Request) {
	size := intParam(r, "size", 1000)
	if size < 1 || size > 1_000_000 {
		writeError(w, http.StatusBadRequest, "request", "size out of range [1, 1000000]")
		return
	}
	apb := intParam(r, "apb", min(2, size))
	if apb < 1 || apb > size {
		writeError(w, http.StatusBadRequest, "request", fmt.Sprintf("apb out of range [1, %d] (at most size)", size))
		return
	}
	s.eng.LoadUseCaseDocuments(size, apb)
	s.eng.LoadDBLPDocument(size)
	fmt.Fprintf(w, "generated use-case corpus at size %d (%d authors/book)\n", size, apb)
}

// --- prepared statements ---

func (s *Server) handlePreparedList(w http.ResponseWriter, r *http.Request) {
	type row struct {
		Name string   `json:"name"`
		Vars []string `json:"vars"`
	}
	s.mu.Lock()
	rows := make([]row, 0, len(s.prepared))
	for name, p := range s.prepared {
		rows = append(rows, row{Name: name, Vars: p.Vars()})
	}
	s.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rows)
}

func (s *Server) handlePreparedPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	text, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if err := s.RegisterPrepared(name, text); err != nil {
		status, kind := errorStatus(err)
		writeError(w, status, kind, err.Error())
		return
	}
	p := s.lookupPrepared(name)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(map[string]any{"name": name, "vars": p.Vars()})
}

func (s *Server) handlePreparedDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, existed := s.prepared[name]
	delete(s.prepared, name)
	s.mu.Unlock()
	if !existed {
		writeError(w, http.StatusNotFound, "request", fmt.Sprintf("no prepared statement %q", name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handlePreparedRun(w http.ResponseWriter, r *http.Request) {
	p := s.lookupPrepared(r.PathValue("name"))
	if p == nil {
		writeError(w, http.StatusNotFound, "request",
			fmt.Sprintf("no prepared statement %q (PUT /prepared/%s to register)", r.PathValue("name"), r.PathValue("name")))
		return
	}
	s.serveRun(w, r, func(ctx context.Context, opts []nalquery.RunOption) (*nalquery.Results, error) {
		return p.Run(ctx, opts...)
	})
}

// --- ad-hoc queries ---

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	text, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if strings.TrimSpace(text) == "" {
		writeError(w, http.StatusBadRequest, "request", "empty query body")
		return
	}
	// RunText goes through the engine's LRU plan cache: repeated traffic
	// for the same text compiles once per engine state.
	s.serveRun(w, r, func(ctx context.Context, opts []nalquery.RunOption) (*nalquery.Results, error) {
		return s.eng.RunText(ctx, text, opts...)
	})
}

// handleDebugPanic runs the full admission + deadline + response pipeline
// and then panics inside the handler — the e2e probe proving one poison
// request cannot take the process down. Mounted only with Config.Debug.
func (s *Server) handleDebugPanic(w http.ResponseWriter, r *http.Request) {
	s.serveRun(w, r, func(ctx context.Context, opts []nalquery.RunOption) (*nalquery.Results, error) {
		panic("debug panic probe")
	})
}

// --- the admitted run pipeline ---

// start abstracts what runs once a slot is held: an ad-hoc RunText, a
// prepared Run, or the debug probe.
type startFunc func(ctx context.Context, opts []nalquery.RunOption) (*nalquery.Results, error)

// serveRun is the shared pipeline of every query-running endpoint:
// resolve the request deadline, pass admission control, start the run,
// stream the result. Admission covers the whole run — the slot is held
// until the response is written — and the deadline covers queue wait plus
// execution.
func (s *Server) serveRun(w http.ResponseWriter, r *http.Request, start startFunc) {
	d, err := s.requestTimeout(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "request", err.Error())
		return
	}
	budget, err := s.requestBudget(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "request", err.Error())
		return
	}
	// The run context: client disconnect, per-request deadline, and the
	// server-wide cancel-on-drain all end it.
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stopDrain := context.AfterFunc(s.baseCtx, func() { cancel(context.Cause(s.baseCtx)) })
	defer stopDrain()
	ctx, cancelT := context.WithTimeoutCause(ctx, d, context.DeadlineExceeded)
	defer cancelT()

	release, err := s.adm.Acquire(ctx)
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer release()

	opts, err := runOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "request", err.Error())
		return
	}
	if budget > 0 {
		opts = append(opts, nalquery.WithMaxMemory(budget))
	}
	res, err := start(ctx, opts)
	if err != nil {
		s.countRunError(err)
		status, kind := errorStatus(err)
		writeError(w, status, kind, err.Error())
		return
	}
	defer res.Close()
	s.streamResults(w, r, res)
}

// writeAdmissionError maps an admission rejection onto its HTTP shape.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, admission.ErrShed):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.RetryAfter.Seconds()+0.5)))
		writeError(w, http.StatusTooManyRequests, "shed",
			"server overloaded: in-flight and queue capacity exhausted")
	case errors.Is(err, admission.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, "timeout", "deadline expired while queued for admission")
	default:
		writeError(w, http.StatusServiceUnavailable, "request", err.Error())
	}
}

// countRunError feeds the /statusz failure counters.
func (s *Server) countRunError(err error) {
	switch {
	case errors.Is(err, nalquery.ErrInternal):
		s.internal.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
	case errors.Is(err, nalquery.ErrResourceExhausted):
		s.resource.Add(1)
	}
}

// requestTimeout resolves the per-request deadline: the X-Nalquery-Timeout
// header or ?timeout= parameter (Go duration syntax), default
// cfg.DefaultTimeout, capped at cfg.MaxTimeout.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	raw := r.Header.Get("X-Nalquery-Timeout")
	if q := r.URL.Query().Get("timeout"); q != "" {
		raw = q
	}
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad timeout %q (want Go duration, e.g. 500ms): %v", raw, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("bad timeout %q: must be positive", raw)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// requestBudget resolves the per-run memory budget: the
// X-Nalquery-Max-Memory header or ?max-memory= parameter (bytes with
// optional k/m/g suffix), default cfg.DefaultMaxMemory, capped at
// cfg.MaxMemoryCap. A client's 0 asks for that default like sending nothing
// does — only the configuration can leave a run without budget (a result of
// zero).
func (s *Server) requestBudget(r *http.Request) (int64, error) {
	raw := r.Header.Get("X-Nalquery-Max-Memory")
	if q := r.URL.Query().Get("max-memory"); q != "" {
		raw = q
	}
	if raw == "" {
		return s.cfg.DefaultMaxMemory, nil
	}
	n, err := cli.ParseBytes(raw)
	if err != nil {
		return 0, fmt.Errorf("bad max-memory %q (want bytes, e.g. 64k, 16m): %v", raw, err)
	}
	if n == 0 {
		return s.cfg.DefaultMaxMemory, nil
	}
	return min(n, s.cfg.MaxMemoryCap), nil
}

// runOptions builds the Run options of a request: ?plan= selects the plan
// alternative, repeated ?var=name=value parameters bind external
// variables (values parse integer, then float, then string — the CLI
// rule).
func runOptions(r *http.Request) ([]nalquery.RunOption, error) {
	q := r.URL.Query()
	var opts []nalquery.RunOption
	if plan := q.Get("plan"); plan != "" {
		opts = append(opts, nalquery.WithPlan(plan))
	}
	for _, v := range q["var"] {
		name, val, ok := strings.Cut(v, "=")
		if !ok {
			return nil, fmt.Errorf("bad var %q (want name=value)", v)
		}
		opts = append(opts, nalquery.Bind(strings.TrimPrefix(name, "$"), cli.ParseVarValue(val)))
	}
	return opts, nil
}

// intParam reads an integer query parameter with a default.
func intParam(r *http.Request, name string, def int) int {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// readBody reads the request body under the size cap, answering the error
// itself when it fails.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (string, bool) {
	if s.declaredTooLarge(w, r, "body") {
		return "", false
	}
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeBodyError(w, err, "body")
		return "", false
	}
	return string(b), true
}

// declaredTooLarge answers 413 for a request whose Content-Length is above
// the body cap, before any of the body is read.
func (s *Server) declaredTooLarge(w http.ResponseWriter, r *http.Request, what string) bool {
	if r.ContentLength <= s.cfg.MaxBodyBytes {
		return false
	}
	writeError(w, http.StatusRequestEntityTooLarge, "too-large",
		fmt.Sprintf("%s exceeds %d bytes", what, s.cfg.MaxBodyBytes))
	return true
}

// writeBodyError answers a failed body read: 413 when the body ran past the
// cap, 400 otherwise (a body shorter than its Content-Length, a broken
// connection).
func (s *Server) writeBodyError(w http.ResponseWriter, err error, what string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "too-large",
			fmt.Sprintf("%s exceeds %d bytes", what, tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, "request", fmt.Sprintf("read %s: %v", what, err))
}

// --- lifecycle ---

// BeginDrain flips readiness off and stops admitting runs. Idempotent.
func (s *Server) BeginDrain() {
	if s.ready.Swap(false) {
		s.log.Printf("drain: stopped admitting (active=%d queued=%d)",
			s.adm.Counters().Active, s.adm.Counters().Queued)
	}
	s.adm.Drain()
}

// Drain performs the graceful-shutdown sequence: stop admitting, wait for
// in-flight runs to finish within the drain budget, then cancel the
// stragglers through the engine's context plumbing and wait briefly for
// them to unwind. It returns nil when the server drained cleanly and the
// budget-expiry cause otherwise. ctx bounds the whole call on top of the
// configured budget.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	budget, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	err := s.adm.Wait(budget)
	if err == nil {
		s.log.Printf("drain: idle, shutting down cleanly")
		return nil
	}
	s.log.Printf("drain: budget expired with %d run(s) in flight, cancelling",
		s.adm.Counters().Active)
	s.cancelRuns(fmt.Errorf("server draining: %w", admission.ErrDraining))
	// Cancelled runs unwind at the next scan poll; give them a moment so
	// the process exits with released state, but never hang shutdown.
	grace, gcancel := context.WithTimeout(ctx, 2*time.Second)
	defer gcancel()
	s.adm.Wait(grace)
	return err
}
