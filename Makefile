# Build/verify targets. tier1 is the hard gate every PR must keep green;
# bench-smoke additionally vets the tree and runs every benchmark family
# once, catching benchmark-harness rot without paying for real measurement.
# ci is the full gate: tier-1, lint (the zero-dependency guard and the
# nalvet analyzers), go vet plus race-built tests, the fault-injection
# sweep over every resource-budget trip point, the seeded differential
# oracle, a fresh benchmark trajectory (bench-json) diffed against the
# committed BENCH_results.json, a compile-and-smoke of the benchmark/
# harness against the engine, and the daemon lifecycle smoke (load-smoke).
# .github/workflows/ci.yml runs three gates more, which ci leaves out of a
# local run for their cost: fuzz-smoke (each fuzz target for FUZZTIME on
# top of the oracle, minutes of wall clock), the index speedup acceptance
# at NALQUERY_INDEX_SPEEDUP_SIZE=100000 (a 100 000-book corpus, slow and
# memory-heavy) and the HTTP benchmark smoke (one iteration, which only
# proves the server benchmarks still run).

GO ?= go

.PHONY: tier1 vet lint test race-test faults oracle fuzz-smoke bench-smoke bench-json bench-diff bench-harness bench-pairs profile serve load-smoke ci

tier1:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint builds the repo's own analyzer suite (cmd/nalvet, docs/ANALYSIS.md;
# standard library only) and has go vet run it as its -vettool over the
# whole tree. It enforces the cross-file engine invariants: operator-
# dispatch completeness, panic discipline, charge-map label stability,
# MustParse confinement and scan-loop cancellation polling. Findings print
# as file:line: message. It first guards the module's zero-dependency
# state: no vendor/ directory and no module but this one in the build list;
# then that gofmt leaves every Go file outside testdata/ as written (the
# analyzer fixtures there may be unformatted on purpose), and that the one
# non-test Go file importing unsafe is internal/dom/rows.go, where a row
# finds its document's header word (benchmark/ is its own module).
lint:
	test ! -e vendor && [ "$$($(GO) list -m all | wc -l)" -eq 1 ]
	@unsafe=$$(git grep -l --untracked '"unsafe"' -- '*.go' ':!*_test.go' ':!benchmark/'); \
		if [ "$$unsafe" != internal/dom/rows.go ]; then echo "non-test files importing unsafe, want only internal/dom/rows.go:"; echo "$$unsafe"; exit 1; fi
	@unformatted=$$("$$($(GO) env GOROOT)/bin/gofmt" -l . | grep -v -e '^testdata/' -e '/testdata/'); \
		if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	@mkdir -p .bin
	$(GO) build -o .bin/nalvet ./cmd/nalvet
	$(GO) vet -vettool=$(CURDIR)/.bin/nalvet ./...

test:
	$(GO) test ./...

# race-test vets the tree and runs the test suite built with the race
# detector — the data-race gate of the CI story.
race-test:
	$(GO) vet ./...
	$(GO) test -race ./...

# faults runs the resource-governance fault-injection sweep under the race
# detector: every paper plan on the slot engine and on the reference
# evaluator, tripped at every operator boundary the run crosses
# (faults_test.go), plus the budget-exhaustion paths of the HTTP tier.
# Uncached (-count=1) so CI always re-executes it.
faults:
	$(GO) test -race -count=1 -run 'TestFault|TestWithMax|TestBudget|TestConcurrentBudget' .
	$(GO) test -race -count=1 -run 'TestResource|TestRequestBodyBounds' ./internal/server/

# oracle is the seeded differential sweep (docs/FUZZING.md): generated
# queries through every plan alternative on the slot engine and the
# reference evaluator, both consumption modes, byte-identical — plus the
# pinned crashers, the table of quantifier shapes the generator cannot draw
# and the malformed-request sweep of the HTTP tier — under the race detector.
# It is the byte-identity proof of ci. Override QGEN_SEED / QGEN_COUNT to
# dig; failures print a one-line reproducer.
QGEN_SEED ?= 20240808
QGEN_COUNT ?= 250
oracle:
	NALQUERY_QGEN_SEED=$(QGEN_SEED) NALQUERY_QGEN_COUNT=$(QGEN_COUNT) \
		$(GO) test -race -count=1 -run 'TestDifferential|TestCrasher|TestQuantifierSatisfiesShapes|TestMalformedRequestSweep' . ./internal/server/

# fuzz-smoke is the per-PR fuzzing gate: the oracle sweep, then each native
# fuzz target briefly under the coverage engine (which always replays the
# committed testdata/fuzz corpus first — the pinned crashers). Override
# FUZZTIME to dig.
FUZZTIME ?= 30s
fuzz-smoke: oracle
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) -run '^$$' ./internal/xquery/
	$(GO) test -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) -run '^$$' ./internal/xquery/
	$(GO) test -fuzz FuzzCompile -fuzztime $(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz FuzzHTTPQuery -fuzztime $(FUZZTIME) -run '^$$' ./internal/server/
	$(GO) test -fuzz FuzzStoreLoad -fuzztime $(FUZZTIME) -run '^$$' ./internal/store/
	$(GO) test -fuzz FuzzLoadXML -fuzztime $(FUZZTIME) -run '^$$' ./internal/dom/
	$(GO) test -fuzz FuzzCompareAtoms -fuzztime $(FUZZTIME) -run '^$$' ./internal/value/
	$(GO) test -fuzz FuzzIndexProbe -fuzztime $(FUZZTIME) -run '^$$' ./internal/index/

bench-smoke: vet
	$(GO) build ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-json regenerates BENCH_results.json, the machine-readable allocation
# trajectory (B/op and allocs/op per paper query, plan and size). It carries
# no wall-clock column — timings are measured with benchmark/ (bench-pairs).
bench-json:
	$(GO) run ./cmd/nalbench

# bench-diff compares the working-tree BENCH_results.json against the
# committed trajectory (BENCH_BASE, default HEAD) and fails when allocs/op
# regresses more than BENCH_DIFF_PCT percent (or B/op more than 15) on any
# measured plan, or when a plan vanished from a query nalbench still
# measures (a truncated file). Baseline rows of a query nalbench no longer
# measures are reported as "retired" and pass.
# It gates the trajectory transition you are about to commit: regenerate
# with `make bench-json` first, or set BENCH_BASE=HEAD~1 to validate the
# last committed transition.
BENCH_BASE ?= HEAD
BENCH_DIFF_PCT ?= 10
bench-diff:
	@git show $(BENCH_BASE):BENCH_results.json > .bench-base.json
	@$(GO) run ./cmd/nalbench -diff .bench-base.json -threshold $(BENCH_DIFF_PCT); \
		rc=$$?; rm -f .bench-base.json; exit $$rc

# bench-harness vets and smoke-tests the end-to-end harness of benchmark/
# (its own module, importing the engine through a replace directive), so an
# exported name it compiles against cannot go missing unnoticed (~10 s).
bench-harness:
	cd benchmark && $(GO) vet . && $(GO) test -count=1 .

# bench-pairs measures the working tree against a parent commit with the
# benchmark/ harness the way a performance claim requires (cmd/benchpairs):
# PAIRS alternating parent/change runs of one workload, then per end-to-end
# metric both medians and quartile pairs, wins/ties/losses and a verdict
# (gain, worse, unresolved, within bound). About seven minutes for ten pairs
# of one workload, so it is not part of ci.
#   make bench-pairs WORKLOAD=adhoc_compile [PARENT=HEAD~1] [PAIRS=10]
WORKLOAD ?=
PARENT ?= HEAD
PAIRS ?= 10
bench-pairs:
	$(GO) run ./cmd/benchpairs -workload "$(WORKLOAD)" -parent "$(PARENT)" -pairs $(PAIRS)

# profile writes a CPU profile of BenchmarkPaperPlansPrepared — the harness's
# paper_plans operation as a go test benchmark: the seven paper queries,
# prepared, over the size-5000 corpus, 2 s each — to .bin/cpu.out and prints
# its functions by flat samples (about a minute). Read the same file with
# `go tool pprof -top -cum .bin/cpu.out` for cumulative shares.
profile:
	@mkdir -p .bin
	$(GO) test -run '^$$' -bench PaperPlansPrepared -benchtime 2s -cpuprofile .bin/cpu.out -o .bin/nalquery.test .
	$(GO) tool pprof -top .bin/nalquery.test .bin/cpu.out

# serve runs a local nalserved over the synthetic corpus — the quickest
# way to poke the HTTP surface by hand (see docs/SERVER.md).
SERVE_ADDR ?= 127.0.0.1:8080
SERVE_GEN ?= 1000
serve:
	$(GO) run ./cmd/nalserved -addr $(SERVE_ADDR) -gen $(SERVE_GEN)

# load-smoke exercises the full service lifecycle end to end: start a
# daemon on a private port, wait for /readyz, drive a short nalload sweep
# (including an overload step), SIGTERM the daemon and require a clean
# drain. It catches rot in the daemon wiring that the in-process e2e suite
# cannot see (flag parsing, signal handling, real sockets).
LOAD_ADDR ?= 127.0.0.1:18730
load-smoke:
	@mkdir -p .bin
	$(GO) build -o .bin/nalserved ./cmd/nalserved
	$(GO) build -o .bin/nalload ./cmd/nalload
	@./.bin/nalserved -addr $(LOAD_ADDR) -gen 200 -max-inflight 2 -max-queue 2 & \
		pid=$$!; \
		./.bin/nalload -addr http://$(LOAD_ADDR) -wait 10s -warmup 200ms \
			-concurrency 1,8 -duration 1s; rc=$$?; \
		kill -TERM $$pid; wait $$pid; drc=$$?; \
		[ $$rc -eq 0 ] && [ $$drc -eq 0 ]

ci: tier1 lint race-test faults oracle bench-json bench-diff bench-harness load-smoke
