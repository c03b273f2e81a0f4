// Command nalserved serves XQuery traffic over HTTP on the prepared-query
// core, built to degrade gracefully instead of collapsing: bounded
// admission (in-flight cap + wait queue, 429/Retry-After beyond), per-
// request deadlines riding the engine's context cancellation, panic
// isolation (a poison query answers 500, the process keeps serving), and
// SIGTERM draining (stop admitting, finish in-flight runs within the drain
// budget, cancel stragglers).
//
// Usage:
//
//	nalserved -addr :8080 -gen 1000                   # synthetic corpus
//	nalserved -doc bib.xml=path/to/bib.xml [-doc ...] # loaded documents
//	nalserved -prepare recent=query.xq                # named statements
//	nalserved -max-inflight 8 -max-queue 32 -timeout 5s -max-timeout 30s
//
// Endpoints (see docs/SERVER.md for the full contract):
//
//	POST /query                 run the body as XQuery (?plan=, ?timeout=,
//	                            ?var=name=value, ?format=xml|json)
//	PUT  /prepared/{name}       register a named prepared statement
//	POST /prepared/{name}       run it (?var=name=value, ...)
//	GET  /prepared              list statements
//	POST /documents/{uri}       load the XML body as document {uri}
//	GET  /documents             list documents
//	POST /gen?size=N&apb=M      load the synthetic use-case corpus
//	GET  /healthz /readyz /statusz
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	nalquery "nalquery"
	"nalquery/internal/cli"
	"nalquery/internal/server"
)

type repeatFlags []string

func (d *repeatFlags) String() string     { return strings.Join(*d, ",") }
func (d *repeatFlags) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	var docs, prepares repeatFlags
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		gen         = flag.Int("gen", 0, "generate the synthetic use-case corpus at this size")
		apb         = flag.Int("authors", 2, "authors per book for -gen")
		maxInFlight = flag.Int("max-inflight", 0, "concurrent query runs (default GOMAXPROCS)")
		maxQueue    = flag.Int("max-queue", 0, "requests queued beyond the in-flight cap (default 4x; -1 = no queue)")
		timeout     = flag.Duration("timeout", 10*time.Second, "default per-request run deadline")
		maxTimeout  = flag.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
		drain       = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget before in-flight runs are cancelled")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		maxBody     = flag.Int64("max-body", 16<<20, "request body cap in bytes")
		maxMemory   = flag.String("max-memory", "0", "default per-run memory budget (bytes, k/m/g suffix; 0 = unlimited)")
		maxMemCap   = flag.String("max-memory-cap", "1g", "cap on client-requested memory budgets")
		debug       = flag.Bool("debug", false, "mount the /debug endpoints (panic probe)")
	)
	flag.Var(&docs, "doc", "uri=path document registration (repeatable; .nalb store files supported)")
	flag.Var(&prepares, "prepare", "name=file named prepared statement (repeatable)")
	flag.Parse()

	logger := log.New(os.Stderr, "nalserved: ", log.LstdFlags|log.Lmsgprefix)

	defMem, err := cli.ParseBytes(*maxMemory)
	if err != nil {
		logger.Fatalf("-max-memory: %v", err)
	}
	memCap, err := cli.ParseBytes(*maxMemCap)
	if err != nil {
		logger.Fatalf("-max-memory-cap: %v", err)
	}

	eng := nalquery.NewEngine()
	if *gen > 0 {
		eng.LoadUseCaseDocuments(*gen, *apb)
		eng.LoadDBLPDocument(*gen)
		logger.Printf("generated use-case corpus at size %d (%d authors/book)", *gen, *apb)
	}
	for _, d := range docs {
		if err := cli.LoadDoc(eng, d); err != nil {
			logger.Fatalf("load %s: %v", d, err)
		}
		logger.Printf("loaded %s", d)
	}

	srv := server.New(eng, server.Config{
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		DrainTimeout:     *drain,
		RetryAfter:       *retryAfter,
		MaxBodyBytes:     *maxBody,
		DefaultMaxMemory: defMem,
		MaxMemoryCap:     memCap,
		Debug:            *debug,
	}, logger)

	for _, p := range prepares {
		name, path, ok := strings.Cut(p, "=")
		if !ok {
			logger.Fatalf("-prepare needs name=file, got %q", p)
		}
		text, err := os.ReadFile(path)
		if err != nil {
			logger.Fatalf("prepare %s: %v", name, err)
		}
		if err := srv.RegisterPrepared(name, string(text)); err != nil {
			logger.Fatalf("prepare %s: %v", name, err)
		}
		logger.Printf("prepared statement %q from %s", name, path)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	logger.Printf("serving on http://%s (inflight=%d queue=%d timeout=%v)",
		ln.Addr(), srv.Stat().MaxInFlight, srv.Stat().MaxQueue, *timeout)

	// SIGTERM/SIGINT begins the drain sequence: stop admitting, finish
	// in-flight runs within the budget, cancel stragglers, then close the
	// listener. A second signal aborts immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	logger.Printf("signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := srv.Drain(shutCtx); err != nil {
		logger.Printf("drain: cancelled stragglers: %v", err)
	}
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	logger.Printf("bye")
}
