package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	nalquery "nalquery"
)

// chunkRecorder is a ResponseWriter that keeps the size of each Write and
// fails every Write once err is set.
type chunkRecorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
	writes []int
	err    error
}

func newChunkRecorder() *chunkRecorder { return &chunkRecorder{hdr: http.Header{}} }

func (c *chunkRecorder) Header() http.Header { return c.hdr }

func (c *chunkRecorder) WriteHeader(status int) {
	if c.status == 0 {
		c.status = status
	}
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	c.writes = append(c.writes, len(p))
	return c.body.Write(p)
}

// TestSpillWriterAroundTheLimit writes responses of limit−1, limit, limit+1
// and 2·limit+1 bytes, a byte at a time, as strings and in one piece: below
// the limit nothing commits before finish; from the limit on the response
// commits, and after the commit it goes out in chunks of limit bytes.
func TestSpillWriterAroundTheLimit(t *testing.T) {
	const limit = 10
	for _, n := range []int{limit - 1, limit, limit + 1, 2*limit + 1} {
		body := "0123456789abcdefghijklmnopqrstuvwxyz"[:n]
		for _, how := range []string{"bytes", "string", "whole"} {
			rec := newChunkRecorder()
			sp := &spillWriter{w: rec, limit: limit, status: 200, contentType: "text/plain"}
			switch how {
			case "bytes":
				for i := range n {
					sp.Write([]byte{body[i]})
				}
			case "string":
				for i := range n {
					sp.WriteString(body[i : i+1])
				}
			case "whole":
				sp.Write([]byte(body))
			}
			if sp.committed != (n >= limit) {
				t.Errorf("%d bytes (%s): committed %v before finish", n, how, sp.committed)
			}
			if err := sp.finish(); err != nil {
				t.Fatal(err)
			}
			want := []int{n}
			if n > limit {
				want = []int{limit, n - limit}
			}
			if n > 2*limit {
				want = []int{limit, limit, n - 2*limit}
			}
			if rec.body.String() != body || rec.status != 200 || !slices.Equal(rec.writes, want) {
				t.Errorf("%d bytes (%s): %d %q in writes %v, want %q in %v", n, how, rec.status, rec.body.String(), rec.writes, body, want)
			}
			if cap(sp.buf) != limit {
				t.Errorf("%d bytes (%s): buffer grew to %d", n, how, cap(sp.buf))
			}
		}
	}
}

// TestSpillWriterReportsWireError: a response that fits the buffer and
// fails on the wire is a failure: finish and Err return the error, and a
// later write does not try again.
func TestSpillWriterReportsWireError(t *testing.T) {
	wire := errors.New("connection reset")
	rec := newChunkRecorder()
	rec.err = wire
	sp := &spillWriter{w: rec, limit: 100, status: 200, contentType: "text/plain"}
	sp.WriteString("tiny")
	if err := sp.finish(); !errors.Is(err, wire) || !errors.Is(sp.Err(), wire) {
		t.Fatalf("finish = %v, Err = %v, want %v", err, sp.Err(), wire)
	}
	if n, err := sp.Write([]byte("more")); n != 0 || !errors.Is(err, wire) {
		t.Fatalf("write after the error: %d, %v", n, err)
	}
}

// TestStreamAbortsOnWireError: served through the handler, a small answer
// whose write fails is logged and aborts the response, as a run failing
// mid-stream does.
func TestStreamAbortsOnWireError(t *testing.T) {
	eng := nalquery.NewEngine()
	eng.LoadUseCaseDocuments(20, 2)
	var logged strings.Builder
	s := New(eng, Config{}, log.New(&logged, "", 0))
	for _, target := range []string{"/query", "/query?format=json"} {
		logged.Reset()
		rec := newChunkRecorder()
		rec.err = errors.New("broken pipe")
		req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(titlesQuery))
		p := func() (p any) {
			defer func() { p = recover() }()
			s.Handler().ServeHTTP(rec, req)
			return nil
		}()
		if p != http.ErrAbortHandler {
			t.Errorf("%s: handler ended with %v, want http.ErrAbortHandler", target, p)
		}
		if !strings.Contains(logged.String(), "aborting committed stream: broken pipe") {
			t.Errorf("%s: log %q", target, logged.String())
		}
	}
}

// TestSpillBufferReuseLeaksNothing alternates prepared queries of different
// output sizes, below and above SpillBytes, from three clients on a server
// of two slots, whose buffers are reused: every body equals Results.WriteXML
// into a bytes.Buffer, so no byte of an earlier or a concurrent response
// reaches another. Between them, a run that trips its memory budget after
// writing some hundred bytes, below the limit, still answers with its mapped
// status, and its bytes go nowhere.
func TestSpillBufferReuseLeaksNothing(t *testing.T) {
	eng := nalquery.NewEngine()
	eng.LoadUseCaseDocuments(200, 2)
	s := New(eng, Config{MaxInFlight: 2, SpillBytes: 1 << 10}, log.New(io.Discard, "", 0))
	queries := map[string]string{
		"titles": titlesQuery,
		"count":  `let $d1 := doc("bib.xml") return <n>{ count($d1//book) }</n>`,
		"first":  `let $d1 := doc("bib.xml") for $b in $d1//book where $b/@year = 1995 return $b/title`,
	}
	want := map[string]string{}
	for name, text := range queries {
		if err := s.RegisterPrepared(name, text); err != nil {
			t.Fatal(err)
		}
		q, err := eng.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteXML(&buf); err != nil {
			t.Fatal(err)
		}
		want[name] = buf.String()
	}
	if len(want["titles"]) <= 1<<10 || len(want["count"]) >= 1<<10 {
		t.Fatalf("sizes %d and %d do not straddle SpillBytes", len(want["titles"]), len(want["count"]))
	}
	h := s.Handler()
	order := []string{"titles", "count", "titles", "first", "count", "first", "titles", "count"}
	var wg sync.WaitGroup
	for c := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range order {
				name := order[(k+c)%len(order)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/prepared/"+name, nil))
				if rec.Code != 200 || rec.Body.String() != want[name] {
					t.Errorf("%s: %d, %d bytes, want %d bytes equal to WriteXML", name, rec.Code, rec.Body.Len(), len(want[name]))
				}
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/prepared/titles?max-memory=2k", nil))
				if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"kind":"resource"`) {
					t.Errorf("over-budget run after %s: %d %s", name, rec.Code, rec.Body.String())
				}
			}
		}()
	}
	wg.Wait()
}
