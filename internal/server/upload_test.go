package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nalquery/internal/dom"
)

// rawUpload sends a document upload over a fresh connection with the given
// Content-Length header and body bytes, half-closes the connection when
// closeWrite is set, and returns the response status and body.
func rawUpload(t *testing.T, ts *httptest.Server, length int, body string, closeWrite bool) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "POST /documents/raw.xml HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n%s", length, body)
	if closeWrite {
		conn.(*net.TCPConn).CloseWrite()
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response body: %v", err)
	}
	return resp.StatusCode, string(b)
}

// TestUploadBodies pins how an upload's body is read: a body shorter than
// its Content-Length answers 400, a declared length above the cap answers
// 413 before the client sends a byte of the body, and a chunked upload
// (no declared length) loads.
func TestUploadBodies(t *testing.T) {
	srv, ts := newTestServer(t, 10, Config{MaxBodyBytes: 1 << 10})
	doc := `<r><x>short</x></r>`

	code, body := rawUpload(t, ts, len(doc)+100, doc, true)
	if code != http.StatusBadRequest || errKind(t, body) != "request" {
		t.Errorf("body shorter than its Content-Length: %d %s", code, body)
	}

	// The body is never sent and the connection stays open for writing:
	// only an answer that reads nothing can arrive before the deadline.
	code, body = rawUpload(t, ts, 1<<20, "", false)
	if code != http.StatusRequestEntityTooLarge || errKind(t, body) != "too-large" {
		t.Errorf("declared length above the cap: %d %s", code, body)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/documents/chunked.xml",
		io.MultiReader(strings.NewReader(`<r><x>chunked</x>`), strings.NewReader(`</r>`)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("chunked upload: %d", resp.StatusCode)
	}
	if d := srv.Engine().Document("chunked.xml"); d == nil || dom.XMLString(d.Root) != `<r><x>chunked</x></r>` {
		t.Fatalf("chunked upload did not load its document")
	}

	// A chunked body past the cap still answers 413.
	req, err = http.NewRequest(http.MethodPost, ts.URL+"/documents/big.xml",
		io.MultiReader(strings.NewReader("<r>"), strings.NewReader(strings.Repeat("<x>pad</x>", 200)+"</r>")))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || errKind(t, string(b)) != "too-large" {
		t.Fatalf("chunked upload past the cap: %d %s", resp.StatusCode, b)
	}
}

// TestGenAuthorsPerBook: /gen answers 400 for an apb outside [1, size]
// and, at size 1, defaults apb to 1 — both return, where two authors per
// book over a pool of one author used to spin forever.
func TestGenAuthorsPerBook(t *testing.T) {
	_, ts := newTestServer(t, 10, Config{})
	for _, c := range []struct {
		target string
		status int
	}{
		{"/gen?size=1", http.StatusOK},
		{"/gen?size=3&apb=3", http.StatusOK},
		{"/gen?size=1000&apb=5000", http.StatusBadRequest},
		{"/gen?size=5&apb=0", http.StatusBadRequest},
		{"/gen?size=5&apb=-2", http.StatusBadRequest},
	} {
		done := make(chan struct{})
		var code int
		var body string
		go func() {
			defer close(done)
			resp, err := http.Post(ts.URL+c.target, "text/plain", nil)
			if err != nil {
				body = err.Error()
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			code, body = resp.StatusCode, string(b)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("POST %s did not return", c.target)
		}
		if code != c.status {
			t.Errorf("POST %s: %d %s, want %d", c.target, code, body, c.status)
		}
		if c.status == http.StatusBadRequest && errKind(t, body) != "request" {
			t.Errorf("POST %s: kind %q, want request", c.target, errKind(t, body))
		}
	}
}
