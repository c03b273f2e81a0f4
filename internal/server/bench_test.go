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
