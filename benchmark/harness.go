package main

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	nalquery "nalquery"
	"nalquery/internal/server"
)

// capture is the reusable sink every operation writes into: the io.Writer of
// Results.WriteXML and the http.ResponseWriter of the in-process handler. It
// keeps the bytes (one append per write, capacity retained across operations)
// so each timed repetition can be hashed after its clock has stopped.
type capture struct {
	buf    []byte
	status int
	hdr    http.Header
}

func newCapture() *capture { return &capture{hdr: http.Header{}} }

func (c *capture) reset() {
	c.buf = c.buf[:0]
	c.status = 0
	clear(c.hdr)
}

func (c *capture) Header() http.Header { return c.hdr }

func (c *capture) WriteHeader(status int) {
	if c.status == 0 {
		c.status = status
	}
}

func (c *capture) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return len(p), nil
}

func (c *capture) WriteString(s string) (int, error) {
	c.buf = append(c.buf, s...)
	return len(s), nil
}

// op is one operation of a workload's pass: what it does and the SHA-256 its
// output must have, fixed by the oracle before the clock starts.
type op struct {
	class int
	name  string
	do    func(out *capture) error
	want  [sha256.Size]byte
}

// stmt is a query the traced run replays layer by layer; its bindings are
// valid at every corpus size, so the size-100 oracle can run it too.
type stmt struct {
	name  string
	text  string
	binds map[string]any
}

func (s stmt) opts() []nalquery.RunOption {
	var opts []nalquery.RunOption
	for _, name := range slices.Sorted(maps.Keys(s.binds)) {
		opts = append(opts, nalquery.Bind(name, s.binds[name]))
	}
	return opts
}

// inputs is everything a workload generates from the seed, untimed: the
// serialized documents and expected hashes live in the setup closure.
type inputs struct {
	classes []string
	passes  int  // passes per round
	shuffle bool // a fresh seeded permutation per pass; otherwise pass order
	stmts   []stmt
	// hits and misses are the plan-cache hits and misses one pass makes once
	// the cache is warm; every round is checked against them, so a workload
	// cannot turn into another kind of cache benchmark unnoticed.
	hits, misses int64
	mainURI      string // the document the loading probes of the traced run parse
	mainXML      string
	// setup is one cold start: new engine, every document loaded, every
	// statement prepared or registered. The first execution of each class is
	// added by coldStart.
	setup func() (*instance, error)
}

// instance is one started system under test.
type instance struct {
	eng *nalquery.Engine
	srv *server.Server // nil for the library workloads
	ops []op           // one pass
}

// check runs o once and verifies its output against the oracle's hash.
func (o *op) check(out *capture) error {
	out.reset()
	if err := o.do(out); err != nil {
		return fmt.Errorf("%s: %w", o.name, err)
	}
	if sha256.Sum256(out.buf) != o.want {
		return fmt.Errorf("%s: output differs from the oracle's (%d bytes)", o.name, len(out.buf))
	}
	return nil
}

// coldStart is the unit setup_s times: in.setup plus the first, verified
// execution of each operation class.
func coldStart(in *inputs, out *capture) (*instance, error) {
	inst, err := in.setup()
	if err != nil {
		return nil, err
	}
	seen := make([]bool, len(in.classes))
	for i := range inst.ops {
		o := &inst.ops[i]
		if seen[o.class] {
			continue
		}
		seen[o.class] = true
		if err := o.check(out); err != nil {
			return nil, fmt.Errorf("first execution: %w", err)
		}
	}
	return inst, nil
}

// loop accumulates the closed loop's measurements: one client goroutine, the
// next operation issued when the previous one has returned and been verified.
type loop struct {
	in   *inputs
	inst *instance
	rng  *rand.Rand
	out  *capture
	tr   *tracer // nil on the untraced run

	rounds    []roundStats // the timed rounds
	refs      []float64    // the machine-speed reference: before set-up, and between the rounds
	attempted int          // every operation issued, the warm-up round's too
	failed    int
	timedOps  int // operations of the timed rounds, the divisor of the per-op counts
	firstFail string
	cacheErr  error // the first round whose plan-cache hits or misses were not the declared ones
	mallocs   uint64
	allocated uint64
}

// roundStats is what one timed round keeps.
type roundStats struct {
	lat  [][]float64 // per class, milliseconds, successful operations only
	rate float64     // operations per busy second
}

func newLoop(in *inputs, inst *instance, seed int64, out *capture) *loop {
	return &loop{in: in, inst: inst, rng: rand.New(rand.NewSource(seed)), out: out}
}

// order returns the operation indexes of one round.
func (l *loop) order() []int {
	n := len(l.inst.ops)
	ord := make([]int, 0, n*l.in.passes)
	for p := 0; p < l.in.passes; p++ {
		if l.in.shuffle {
			ord = append(ord, l.rng.Perm(n)...)
			continue
		}
		for i := 0; i < n; i++ {
			ord = append(ord, i)
		}
	}
	return ord
}

// round runs one round. With record false it is the warm-up: same work,
// nothing kept. Allocation counters are read at the round's edges only, and
// everything the harness allocates is allocated before the first reading.
func (l *loop) round(record bool) time.Duration {
	ord := l.order()
	counts := make([]int, len(l.in.classes))
	for _, i := range ord {
		counts[l.inst.ops[i].class]++
	}
	lat := make([][]float64, len(counts))
	for c, n := range counts {
		lat[c] = make([]float64, 0, n)
	}
	l.tr.reserve(len(ord))
	pc0 := l.inst.eng.PlanCacheStats()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var busy time.Duration
	failed := 0
	for _, i := range ord {
		o := &l.inst.ops[i]
		l.out.reset()
		sp := l.tr.begin("op", l.in.classes[o.class])
		t0 := time.Now()
		err := o.do(l.out)
		d := time.Since(t0)
		l.tr.end(sp)
		busy += d
		if err == nil && sha256.Sum256(l.out.buf) != o.want {
			err = fmt.Errorf("output differs from the oracle's (%d bytes)", len(l.out.buf))
		}
		if err != nil {
			failed++
			if l.firstFail == "" {
				l.firstFail = fmt.Sprintf("%s: %v", o.name, err)
			}
			continue
		}
		lat[o.class] = append(lat[o.class], float64(d)/1e6)
	}
	runtime.ReadMemStats(&m1)
	pc1 := l.inst.eng.PlanCacheStats()
	passes := int64(l.in.passes)
	if hits, misses := pc1.Hits-pc0.Hits, pc1.Misses-pc0.Misses; record && l.cacheErr == nil &&
		(hits != passes*l.in.hits || misses != passes*l.in.misses) {
		l.cacheErr = fmt.Errorf("plan cache: a round made %d hits and %d misses, the workload is defined by %d and %d",
			hits, misses, passes*l.in.hits, passes*l.in.misses)
	}
	l.attempted += len(ord)
	l.failed += failed
	if record {
		l.timedOps += len(ord)
		l.mallocs += m1.Mallocs - m0.Mallocs
		l.allocated += m1.TotalAlloc - m0.TotalAlloc
		l.rounds = append(l.rounds, roundStats{lat, float64(len(ord)) / busy.Seconds()})
	}
	return busy
}

// run is one warm-up round and then whole timed rounds until the budget is
// used, at least minRounds of them, with the machine-speed reference run
// before each. between is called after each timed round with the seconds the
// reference and the rounds have used; what it uses itself is not counted.
func (l *loop) run(seconds float64, between func(elapsed float64) error) error {
	l.round(false)
	var used time.Duration
	for n := 1; ; n++ {
		t0 := time.Now()
		l.refs = append(l.refs, reference())
		last := l.round(true)
		used += time.Since(t0)
		if err := between(used.Seconds()); err != nil {
			return err
		}
		if n >= minRounds && used.Seconds()+last.Seconds() > seconds {
			return nil
		}
	}
}

// samples pools class c's latencies over every timed round.
func (l *loop) samples(c int) []float64 {
	var out []float64
	for _, r := range l.rounds {
		out = append(out, r.lat[c]...)
	}
	return out
}

// quantile is the geometric mean over classes of each class's q-quantile.
func (l *loop) quantile(q float64) float64 {
	logs := 0.0
	for c := range l.in.classes {
		logs += math.Log(quantile(l.samples(c), q))
	}
	return math.Exp(logs / float64(len(l.in.classes)))
}

// throughput is the median over the timed rounds of each round's rate.
func (l *loop) throughput() float64 {
	rates := make([]float64, len(l.rounds))
	for i, r := range l.rounds {
		rates[i] = r.rate
	}
	return median(rates)
}

// quantile is the nearest-rank quantile of xs (which it does not reorder).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// begin is the untimed head of both kinds of run: the collector's pace pinned
// (so that a GOGC in the environment cannot move the allocation-sensitive
// numbers; GOMAXPROCS stays at its default because that is what nalserved
// runs with), a scratch directory, and the workload's inputs with the oracle
// passed. The returned function removes the scratch directory.
func begin(cfg config) (*inputs, func(), error) {
	debug.SetGCPercent(100)
	dir, cleanup, err := scratchDir(cfg.out)
	if err != nil {
		return nil, nil, err
	}
	in, err := generate(cfg.workload, cfg.seed, cfg.scale, dir)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return in, cleanup, nil
}

// heapAllocMiB is the live heap without the reference's table, which is the
// harness's and of a fixed size.
func heapAllocMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc-uint64(4*len(refTable))) / (1 << 20)
}

// --- the machine-speed reference ---
//
// The machines this benchmark runs on are shared. Other tenants slow the
// memory system for minutes at a time: over 80 runs of one binary the medians
// of two sets of ten runs, twenty minutes apart, differed by 12-33 % on every
// workload, more than any bound a timing metric may declare (README.md has
// the runs). A fixed piece of work that knows nothing of the engine slows by
// about the same factor in the same minutes, so it is run between the rounds
// and the timing metrics are reported at the speed at which it takes
// refNominal: a run's times are multiplied by refNominal over the median of
// its reference times. That cuts the run-to-run spread to between a half and
// a third, and it cannot hide a change of the engine, whose code the
// reference never enters.
//
// The work is what the workloads spend their time on, in about equal parts:
// dependent loads through a table larger than the private caches, and
// allocating, linking and walking small heap objects. Of the kernels tried
// (dependent loads through 32 and 128 MiB, copying 32 MiB, SHA-256 of 1 MiB,
// the linked list) this pair followed all four workloads best.
const (
	refTableLen = 8 << 20 // int32s: 32 MiB
	refLoads    = 200_000
	refNodes    = 400_000
	refWalks    = 4
	// refNominal is what the reference takes on the quiet development
	// machine, so that the reported milliseconds read as that machine's.
	refNominal = 55e-3 // seconds
)

// refTable is one cycle through all its entries, in steps of 31 KiB.
var refTable []int32

type refNode struct {
	next *refNode
	pad  [6]int64
}

var (
	refSink *refNode // keeps the list on the heap
	refSum  int64    // keeps the loads and the walks
)

// reference runs the fixed work and returns how long it took, in seconds. The
// collector is off meanwhile: whether 22 MiB of nodes start a collection
// depends on how large the engine's heap is, and the reference must not.
// Every caller forces a collection before it measures anything.
func reference() float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if refTable == nil {
		refTable = make([]int32, refTableLen)
		for i := range refTable {
			refTable[i] = int32((i*7919 + 13) % refTableLen)
		}
	}
	t0 := time.Now()
	p := int32(0)
	for i := 0; i < refLoads; i++ {
		p = refTable[p]
	}
	var head *refNode
	for i := 0; i < refNodes; i++ {
		head = &refNode{next: head}
		head.pad[0] = int64(i)
	}
	refSink = head
	sum := int64(p)
	for w := 0; w < refWalks; w++ {
		for n := refSink; n != nil; n = n.next {
			sum += n.pad[0]
		}
	}
	refSink, refSum = nil, sum
	return time.Since(t0).Seconds()
}
