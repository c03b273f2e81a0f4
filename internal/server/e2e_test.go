package server

// Black-box end-to-end tests of the query service: everything goes through
// a real HTTP listener (httptest.NewServer) against the public handler —
// the robustness contract of nalserved, pinned under -race by CI.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	nalquery "nalquery"
)

// slowQuery is the paper's Q1 whose "nested" plan is quadratic: at corpus
// size 200 it runs for ~150ms+, long enough to hold admission slots while
// a burst arrives; at 500 it runs for ~1s+, long enough that a tight
// deadline always expires first.
const slowQuery = nalquery.QueryQ1Grouping

// titlesQuery is a cheap streaming query over the same corpus.
const titlesQuery = `
let $d1 := doc("bib.xml")
for $t1 in $d1//book/title
return <t>{ $t1 }</t>`

func newTestServer(t *testing.T, size int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	eng := nalquery.NewEngine()
	eng.LoadUseCaseDocuments(size, 2)
	srv := New(eng, cfg, log.New(io.Discard, "", 0))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// post sends a query and returns status, body and the response header.
func post(t *testing.T, url, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/xquery", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// errKind decodes the JSON error envelope's kind.
func errKind(t *testing.T, body string) string {
	t.Helper()
	var e struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("error body is not the JSON envelope: %q (%v)", body, err)
	}
	return e.Kind
}

func TestQueryEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, 50, Config{})
	code, body, hdr := post(t, ts.URL+"/query", titlesQuery)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/xml") {
		t.Fatalf("content-type %q", ct)
	}
	want, err := srv.Engine().Query(titlesQuery)
	if err != nil {
		t.Fatal(err)
	}
	if body != want {
		t.Fatalf("HTTP result differs from the library result:\nhttp: %.120s\nlib:  %.120s", body, want)
	}
	// Repeated traffic hits the plan cache; the result stays identical.
	if code2, body2, _ := post(t, ts.URL+"/query", titlesQuery); code2 != 200 || body2 != want {
		t.Fatalf("second run: status %d", code2)
	}
}

func TestQueryNDJSONFormat(t *testing.T) {
	_, ts := newTestServer(t, 30, Config{})
	code, body, hdr := post(t, ts.URL+"/query?format=json", titlesQuery)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("content-type %q", ct)
	}
	var markup, values int
	var xml strings.Builder
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var item struct {
			Kind, XML, Error string
		}
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch item.Kind {
		case "markup":
			markup++
		case "value":
			values++
		case "error":
			t.Fatalf("stream ended with error line: %s", item.Error)
		}
		xml.WriteString(item.XML)
	}
	if markup == 0 || values == 0 {
		t.Fatalf("expected both markup and value items, got %d/%d", markup, values)
	}
	codeX, bodyX, _ := post(t, ts.URL+"/query", titlesQuery)
	if codeX != 200 || xml.String() != bodyX {
		t.Fatalf("concatenated NDJSON XML differs from the XML response")
	}
}

func TestBadRequestsAnswerTyped(t *testing.T) {
	_, ts := newTestServer(t, 30, Config{})
	cases := []struct {
		name, url, body string
		wantCode        int
		wantKind        string
	}{
		{"parse error", "/query", "for $x in ((( return $x", 400, "parse"},
		{"empty body", "/query", "   ", 400, "request"},
		{"unknown plan", "/query?plan=warp-drive", titlesQuery, 400, "plan"},
		{"bad timeout", "/query?timeout=fast", titlesQuery, 400, "request"},
		{"bad format", "/query?format=yaml", titlesQuery, 400, "request"},
		{"unknown var", "/query?var=nope=1", titlesQuery, 400, "bind"},
	}
	for _, c := range cases {
		code, body, _ := post(t, ts.URL+c.url, c.body)
		if code != c.wantCode || errKind(t, body) != c.wantKind {
			t.Errorf("%s: got %d/%s, want %d/%s (body %s)",
				c.name, code, errKind(t, body), c.wantCode, c.wantKind, body)
		}
	}
}

func TestPreparedStatements(t *testing.T) {
	_, ts := newTestServer(t, 50, Config{})
	stmt := `declare variable $minyear external;
let $d1 := doc("bib.xml")
for $b1 in $d1//book
where $b1/@year > $minyear
return $b1/title`

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/prepared/recent", strings.NewReader(stmt))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Name string   `json:"name"`
		Vars []string `json:"vars"`
	}
	json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || len(reg.Vars) != 1 || reg.Vars[0] != "minyear" {
		t.Fatalf("register: %d %+v", resp.StatusCode, reg)
	}

	code, body, _ := post(t, ts.URL+"/prepared/recent?var=minyear=1993", "")
	if code != http.StatusOK {
		t.Fatalf("run: %d %s", code, body)
	}
	// A missing binding is a 400 bind error, not a crash.
	code, body, _ = post(t, ts.URL+"/prepared/recent", "")
	if code != 400 || errKind(t, body) != "bind" {
		t.Fatalf("unbound run: %d %s", code, body)
	}
	// Unknown statement name.
	code, body, _ = post(t, ts.URL+"/prepared/ghost", "")
	if code != http.StatusNotFound {
		t.Fatalf("ghost statement: %d %s", code, body)
	}
}

func TestDocumentUpload(t *testing.T) {
	_, ts := newTestServer(t, 10, Config{})
	code, body, _ := post(t, ts.URL+"/documents/mine.xml",
		`<shelf><book><title>One</title></book><book><title>Two</title></book></shelf>`)
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %s", code, body)
	}
	q := `let $d := doc("mine.xml") for $t in $d//title return <t>{ $t }</t>`
	code, body, _ = post(t, ts.URL+"/query", q)
	if code != 200 || !strings.Contains(body, "Two") {
		t.Fatalf("query over uploaded doc: %d %s", code, body)
	}
	// Malformed XML answers 400, not a crash.
	code, body, _ = post(t, ts.URL+"/documents/broken.xml", `<a><b></a>`)
	if code != 400 {
		t.Fatalf("broken upload: %d %s", code, body)
	}
}

// TestDeadlineExpiredRun pins deadline propagation into the engine: a
// quadratic plan with a tight deadline answers 504 with a typed timeout
// body — and the slot is returned (a follow-up query succeeds).
func TestDeadlineExpiredRun(t *testing.T) {
	srv, ts := newTestServer(t, 500, Config{MaxInFlight: 1, MaxQueue: -1})
	code, body, _ := post(t, ts.URL+"/query?plan=nested&timeout=50ms", slowQuery)
	if code != http.StatusGatewayTimeout || errKind(t, body) != "timeout" {
		t.Fatalf("deadline run: %d %s", code, body)
	}
	if got := srv.Stat().Timeouts; got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
	// The slot freed: the same server immediately serves a healthy query.
	code, _, _ = post(t, ts.URL+"/query", titlesQuery)
	if code != 200 {
		t.Fatalf("query after timeout: %d", code)
	}
}

// TestDeadlineHeader drives the deadline through X-Nalquery-Timeout and a
// pre-expired wait (deadline shorter than any run) through the admission
// path.
func TestDeadlineHeader(t *testing.T) {
	_, ts := newTestServer(t, 500, Config{})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query?plan=nested", strings.NewReader(slowQuery))
	req.Header.Set("X-Nalquery-Timeout", "50ms")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || errKind(t, string(b)) != "timeout" {
		t.Fatalf("header deadline: %d %s", resp.StatusCode, b)
	}
}

// TestOverloadBurst is the acceptance scenario: at in-flight cap N with
// queue N, a burst of 4N concurrent quadratic queries produces zero
// crashes, prompt 429s with Retry-After for every shed request, successful
// results for every admitted one, and balanced counters afterwards.
func TestOverloadBurst(t *testing.T) {
	const capN, queueN = 3, 3
	const burst = 4 * capN
	srv, ts := newTestServer(t, 200, Config{MaxInFlight: capN, MaxQueue: queueN})

	start := make(chan struct{})
	type outcome struct {
		code    int
		kind    string
		latency time.Duration
		retry   string
	}
	results := make(chan outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			t0 := time.Now()
			resp, err := http.Post(ts.URL+"/query?plan=nested&timeout=30s", "application/xquery",
				strings.NewReader(slowQuery))
			if err != nil {
				results <- outcome{code: -1}
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			o := outcome{code: resp.StatusCode, latency: time.Since(t0),
				retry: resp.Header.Get("Retry-After")}
			if resp.StatusCode != http.StatusOK {
				o.kind = errKind(t, string(b))
			}
			results <- o
		}()
	}
	close(start)
	wg.Wait()
	close(results)

	var ok, shed int
	var shedMax, okMin time.Duration
	okMin = time.Hour
	for o := range results {
		switch o.code {
		case http.StatusOK:
			ok++
			if o.latency < okMin {
				okMin = o.latency
			}
		case http.StatusTooManyRequests:
			shed++
			if o.kind != "shed" {
				t.Errorf("429 with kind %q, want shed", o.kind)
			}
			if o.retry == "" {
				t.Error("429 without Retry-After")
			}
			if o.latency > shedMax {
				shedMax = o.latency
			}
		default:
			t.Errorf("unexpected response %d (kind %s)", o.code, o.kind)
		}
	}
	// Admitted = slots + queue; everything else shed.
	if ok < capN+queueN || ok+shed != burst {
		t.Fatalf("burst outcome: %d ok, %d shed of %d", ok, shed, burst)
	}
	if shed == 0 {
		t.Fatalf("no request was shed by a 4x-cap burst")
	}
	// Shedding is prompt: a 429 never waits for a slot, so it returns well
	// before the fastest admitted run (which executes a quadratic plan).
	if shedMax >= okMin {
		t.Errorf("shed latency %v not prompt (fastest admitted run %v)", shedMax, okMin)
	}
	cnt := srv.Stat().Admission
	if cnt.Active != 0 || cnt.Queued != 0 {
		t.Fatalf("slots leaked after burst: %+v", cnt)
	}
	if cnt.Admitted != int64(ok) || cnt.Shed != int64(shed) {
		t.Fatalf("counters %+v disagree with outcomes (%d ok, %d shed)", cnt, ok, shed)
	}
	// The process is healthy after the storm.
	if code, _, _ := post(t, ts.URL+"/query", titlesQuery); code != 200 {
		t.Fatalf("query after burst: %d", code)
	}
}

// TestPanicIsolation is the poison-query property end to end: a request
// that panics inside the service answers 500 while the server keeps
// serving /healthz and real queries.
func TestPanicIsolation(t *testing.T) {
	srv, ts := newTestServer(t, 30, Config{Debug: true})
	code, body, _ := post(t, ts.URL+"/debug/panic", "")
	if code != http.StatusInternalServerError || errKind(t, body) != "internal" {
		t.Fatalf("panic probe: %d %s", code, body)
	}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("healthz after panic: %v %v", resp, err)
		}
		resp.Body.Close()
	}
	if code, _, _ := post(t, ts.URL+"/query", titlesQuery); code != 200 {
		t.Fatalf("query after panic: %d", code)
	}
	st := srv.Stat()
	if st.HandlerPanics != 1 {
		t.Fatalf("handler_panics = %d, want 1", st.HandlerPanics)
	}
	if st.Admission.Active != 0 {
		t.Fatalf("panic leaked an admission slot: %+v", st.Admission)
	}
}

// TestDrainGraceful pins the SIGTERM sequence: in-flight runs finish,
// readiness flips, new work is refused, health stays up.
func TestDrainGraceful(t *testing.T) {
	const capN = 3
	srv, ts := newTestServer(t, 200, Config{MaxInFlight: capN, MaxQueue: 0, DrainTimeout: 30 * time.Second})

	codes := make(chan int, capN)
	for i := 0; i < capN; i++ {
		go func() {
			code, _, _ := post(t, ts.URL+"/query?plan=nested&timeout=30s", slowQuery)
			codes <- code
		}()
	}
	// Wait until all three hold slots.
	for deadline := time.Now().Add(10 * time.Second); srv.Stat().Admission.Active < capN; {
		if time.Now().After(deadline) {
			t.Fatalf("runs never became active: %+v", srv.Stat().Admission)
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(t.Context()) }()
	// Readiness flips promptly while draining.
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503")
		}
		time.Sleep(time.Millisecond)
	}
	// New queries are refused while draining; health stays up.
	if code, body, _ := post(t, ts.URL+"/query", titlesQuery); code != http.StatusServiceUnavailable || errKind(t, body) != "draining" {
		t.Fatalf("query during drain: %d %s", code, body)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz during drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	// The in-flight runs complete successfully within the budget.
	for i := 0; i < capN; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("in-flight run during drain: %d", code)
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want clean drain", err)
	}
}

// TestDrainCancelsStragglers pins the budget-expiry path: a run longer
// than the drain budget is cancelled through its context and answers a
// typed draining error instead of hanging shutdown.
func TestDrainCancelsStragglers(t *testing.T) {
	srv, ts := newTestServer(t, 1000, Config{MaxInFlight: 1, MaxQueue: 0, DrainTimeout: 100 * time.Millisecond})
	done := make(chan outcomePair, 1)
	go func() {
		code, body, _ := post(t, ts.URL+"/query?plan=nested&timeout=60s", slowQuery)
		done <- outcomePair{code, body}
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.Stat().Admission.Active == 0; {
		if time.Now().After(deadline) {
			t.Fatal("run never became active")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Drain(t.Context()); err == nil {
		t.Fatal("Drain = nil, want budget-expired error")
	}
	o := <-done
	if o.code != http.StatusServiceUnavailable || errKind(t, o.body) != "draining" {
		t.Fatalf("cancelled straggler: %d %s", o.code, o.body)
	}
	if srv.Stat().Admission.Active != 0 {
		t.Fatalf("straggler kept its slot: %+v", srv.Stat().Admission)
	}
}

type outcomePair struct {
	code int
	body string
}

// --- resource governance ---

// TestResourceBudgetAnswers413 pins the pre-commit resource path: a
// memory-hungry grouping plan under a tight ?max-memory= budget answers a
// clean 413 with kind "resource", the statusz counter moves, and the
// engine keeps serving.
func TestResourceBudgetAnswers413(t *testing.T) {
	srv, ts := newTestServer(t, 200, Config{})
	code, body, _ := post(t, ts.URL+"/query?max-memory=4k", slowQuery)
	if code != http.StatusRequestEntityTooLarge || errKind(t, body) != "resource" {
		t.Fatalf("over-budget run: %d %s", code, body)
	}
	if got := srv.Stat().ResourceExhausted; got != 1 {
		t.Fatalf("resource_exhausted counter = %d, want 1", got)
	}
	// The identical query without a budget succeeds on the same engine.
	if code, body, _ := post(t, ts.URL+"/query", slowQuery); code != 200 {
		t.Fatalf("unbudgeted run after trip: %d %s", code, body)
	}
}

// TestResourceBudgetHeaderCapped drives the budget through the
// X-Nalquery-Max-Memory header and pins the server-side cap: a client
// asking for 1 GiB against a 4 KiB cap still trips.
func TestResourceBudgetHeaderCapped(t *testing.T) {
	_, ts := newTestServer(t, 200, Config{MaxMemoryCap: 4 << 10})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(slowQuery))
	req.Header.Set("X-Nalquery-Max-Memory", "1g")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || errKind(t, string(b)) != "resource" {
		t.Fatalf("capped header budget: %d %s", resp.StatusCode, b)
	}
	// A malformed budget is a 400 request error.
	code, body, _ := post(t, ts.URL+"/query?max-memory=lots", titlesQuery)
	if code != 400 || errKind(t, body) != "request" {
		t.Fatalf("bad budget: %d %s", code, body)
	}
	// So is one whose byte count overflows int64: it used to wrap to a
	// negative number, pass under the cap and run ungoverned.
	code, body, _ = post(t, ts.URL+"/query?max-memory=8589934592g", slowQuery)
	if code != 400 || errKind(t, body) != "request" {
		t.Fatalf("overflowing budget: %d %s", code, body)
	}
}

// TestResourceDefaultBudget pins Config.DefaultMaxMemory: with a default
// budget configured, a client sending nothing gets governed.
func TestResourceDefaultBudget(t *testing.T) {
	_, ts := newTestServer(t, 200, Config{DefaultMaxMemory: 4 << 10})
	code, body, _ := post(t, ts.URL+"/query", slowQuery)
	if code != http.StatusRequestEntityTooLarge || errKind(t, body) != "resource" {
		t.Fatalf("default budget: %d %s", code, body)
	}
	// A cheap query fits the same default budget.
	if code, body, _ := post(t, ts.URL+"/query", `let $d1 := doc("bib.xml") return <n>{ count($d1//book) }</n>`); code != 200 {
		t.Fatalf("cheap query under default budget: %d %s", code, body)
	}
}

// TestResourceTripAfterXMLCommit pins the committed-stream contract: when
// the budget trips after the spill buffer committed a 200, the connection
// is aborted so the client observes truncation instead of a silently short
// success.
func TestResourceTripAfterXMLCommit(t *testing.T) {
	srv, ts := newTestServer(t, 3000, Config{SpillBytes: 1 << 10})
	resp, err := http.Post(ts.URL+"/query?max-memory=64k", "application/xquery",
		strings.NewReader(titlesQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want a committed 200 before the trip", resp.StatusCode)
	}
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Fatal("committed over-budget stream ended without a transport error")
	}
	if got := srv.Stat().ResourceExhausted; got != 1 {
		t.Fatalf("resource_exhausted counter = %d, want 1", got)
	}
}

// TestResourceTripAfterNDJSONCommit pins the NDJSON contract: a committed
// ?format=json stream ends with a terminal {"kind":"error"} line typed
// "resource" instead of silent truncation.
func TestResourceTripAfterNDJSONCommit(t *testing.T) {
	_, ts := newTestServer(t, 3000, Config{SpillBytes: 1 << 10})
	code, body, _ := post(t, ts.URL+"/query?format=json&max-memory=64k", titlesQuery)
	if code != http.StatusOK {
		t.Fatalf("status %d, want a committed 200 before the trip", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream too short to have committed: %d lines", len(lines))
	}
	var last struct {
		Kind, Type, Error string
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("bad terminal line %q: %v", lines[len(lines)-1], err)
	}
	if last.Kind != "error" || last.Type != "resource" || last.Error == "" {
		t.Fatalf("terminal line %+v, want kind=error type=resource", last)
	}
}

// TestResourceConcurrentIsolation is the acceptance scenario: over-budget
// requests answer 413 while concurrent in-budget requests on the same
// engine stream their full results, under -race.
func TestResourceConcurrentIsolation(t *testing.T) {
	srv, ts := newTestServer(t, 200, Config{})
	want, err := srv.Engine().Query(titlesQuery)
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*pairs)
	for i := 0; i < pairs; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			code, body, _ := post(t, ts.URL+"/query?max-memory=4k", slowQuery)
			if code != http.StatusRequestEntityTooLarge || errKind(t, body) != "resource" {
				errs <- fmt.Errorf("budgeted request: %d %.100s", code, body)
			}
		}()
		go func() {
			defer wg.Done()
			code, body, _ := post(t, ts.URL+"/query", titlesQuery)
			if code != 200 || body != want {
				errs <- fmt.Errorf("in-budget request: %d", code)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.Stat().ResourceExhausted; got != pairs {
		t.Fatalf("resource_exhausted = %d, want %d", got, pairs)
	}
}

// TestRequestBodyBounds pins the body caps: an oversized query body and an
// oversized document upload both answer 413 with kind "too-large".
func TestRequestBodyBounds(t *testing.T) {
	_, ts := newTestServer(t, 10, Config{MaxBodyBytes: 256})
	big := strings.Repeat(" ", 300) + titlesQuery
	code, body, _ := post(t, ts.URL+"/query", big)
	if code != http.StatusRequestEntityTooLarge || errKind(t, body) != "too-large" {
		t.Fatalf("oversized query body: %d %s", code, body)
	}
	doc := "<r>" + strings.Repeat("<x>pad</x>", 40) + "</r>"
	code, body, _ = post(t, ts.URL+"/documents/big.xml", doc)
	if code != http.StatusRequestEntityTooLarge || errKind(t, body) != "too-large" {
		t.Fatalf("oversized document: %d %s", code, body)
	}
	// In-bounds bodies still work.
	if code, _, _ := post(t, ts.URL+"/query", titlesQuery); code != 200 {
		t.Fatalf("in-bounds query after 413s: %d", code)
	}
}

// TestLargeResultStreams pins the spill boundary: a result bigger than
// SpillBytes commits to streaming and arrives complete.
func TestLargeResultStreams(t *testing.T) {
	srv, ts := newTestServer(t, 3000, Config{SpillBytes: 8 << 10})
	code, body, _ := post(t, ts.URL+"/query", titlesQuery)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(body) <= 8<<10 {
		t.Fatalf("result too small (%d bytes) to exercise the spill commit", len(body))
	}
	want, err := srv.Engine().Query(titlesQuery)
	if err != nil {
		t.Fatal(err)
	}
	if body != want {
		t.Fatalf("streamed body differs from library result (%d vs %d bytes)", len(body), len(want))
	}
}
