package server

// In-process benchmarks of the serving stack (handler + admission +
// deadline plumbing, no sockets). `make bench-smoke` runs them once as the
// harness-rot gate; the serving tier's timings are benchmark/'s
// served_lookup workload.

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	nalquery "nalquery"
	"nalquery/internal/dom"
	"nalquery/internal/xmlgen"
)

const benchQuery = `
let $d1 := doc("bib.xml")
for $t1 in $d1//book/title
return <t>{ $t1 }</t>`

func benchServer(b *testing.B, size int) *Server {
	b.Helper()
	eng := nalquery.NewEngine()
	eng.LoadUseCaseDocuments(size, 2)
	s := New(eng, Config{MaxInFlight: 8, MaxQueue: 64}, log.New(io.Discard, "", 0))
	if err := s.RegisterPrepared("titles", benchQuery); err != nil {
		b.Fatal(err)
	}
	return s
}

func doBenchRequest(b *testing.B, h http.Handler, target, body string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

func BenchmarkHTTPQuery(b *testing.B) {
	s := benchServer(b, 100)
	h := s.Handler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doBenchRequest(b, h, "/query", benchQuery)
	}
}

func BenchmarkHTTPPrepared(b *testing.B) {
	s := benchServer(b, 100)
	h := s.Handler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doBenchRequest(b, h, "/prepared/titles", "")
	}
}

// discardResponse is a ResponseWriter reused across requests, so a
// benchmark's B/op is the serving tier's own rather than a recorder's.
type discardResponse struct {
	hdr    http.Header
	status int
	n      int
}

func (d *discardResponse) Header() http.Header { return d.hdr }

func (d *discardResponse) WriteHeader(status int) { d.status = status }

func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// BenchmarkHTTPPreparedStream runs a prepared statement whose answer is
// larger than SpillBytes, so every request commits and streams in chunks
// of the server's one reused buffer.
func BenchmarkHTTPPreparedStream(b *testing.B) {
	eng := nalquery.NewEngine()
	eng.LoadUseCaseDocuments(100, 2)
	s := New(eng, Config{MaxInFlight: 8, MaxQueue: 64, SpillBytes: 1 << 10}, log.New(io.Discard, "", 0))
	if err := s.RegisterPrepared("titles", benchQuery); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	tmpl := httptest.NewRequest(http.MethodPost, "/prepared/titles", nil)
	w := &discardResponse{hdr: http.Header{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := *tmpl
		clear(w.hdr)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, &req)
		if w.status != http.StatusOK || w.n <= 1<<10 {
			b.Fatalf("status %d, %d bytes: want a 200 larger than SpillBytes", w.status, w.n)
		}
	}
}

// uploadBody is a request body reused across requests.
type uploadBody struct{ strings.Reader }

func (*uploadBody) Close() error { return nil }

// BenchmarkHTTPUpload uploads bib.xml at size 1000 (the size of the upload
// the harness's reload_mix workload rotates) through the handler: reading
// the body, the parse, and the statistics and indexes the load rebuilds.
func BenchmarkHTTPUpload(b *testing.B) {
	eng := nalquery.NewEngine()
	eng.LoadUseCaseDocuments(100, 2)
	s := New(eng, Config{}, log.New(io.Discard, "", 0))
	h := s.Handler()
	xml := dom.XMLString(xmlgen.Bib(xmlgen.DefaultConfig(1000)).Root)
	tmpl := httptest.NewRequest(http.MethodPost, "/documents/bib.xml", nil)
	tmpl.ContentLength = int64(len(xml))
	w := &discardResponse{hdr: http.Header{}}
	var body uploadBody
	b.SetBytes(int64(len(xml)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := *tmpl
		body.Reset(xml)
		req.Body = &body
		clear(w.hdr)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, &req)
		if w.status != http.StatusCreated {
			b.Fatalf("status %d", w.status)
		}
	}
}
