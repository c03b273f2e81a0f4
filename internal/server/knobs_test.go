package server

import (
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"
)

// TestRequestKnobTable walks every per-request knob a client can turn —
// timeout and max-memory in their header and query-string forms, var=,
// plan= — through requestTimeout, requestBudget and runOptions and through
// the handler. For every row: the effective deadline never exceeds
// MaxTimeout; the effective budget is never looser than what the operator
// configured (it is set, and at most the cap); and a rejected knob is a 400
// with its typed kind, never a run with the knob ignored.
func TestRequestKnobTable(t *testing.T) {
	const (
		defTimeout, maxTimeout = 2 * time.Second, 5 * time.Second
		defBudget, budgetCap   = int64(4 << 10), int64(8 << 10)
		// echo runs inside any budget; slowQuery (the default text) trips
		// any budget the cap allows.
		echo = `declare variable $t external;
let $d1 := doc("bib.xml") return <t>{ $t }</t>`
	)
	srv, ts := newTestServer(t, 200, Config{DefaultTimeout: defTimeout, MaxTimeout: maxTimeout,
		DefaultMaxMemory: defBudget, MaxMemoryCap: budgetCap})

	for _, row := range []struct {
		name           string
		hTimeout, hMem string // X-Nalquery-Timeout, X-Nalquery-Max-Memory
		query          string // URL query string
		text           string
		status         int
		kind           string        // of the error envelope
		timeout        time.Duration // effective, for an accepted request
		budget         int64
		body           string // expected response body, when it matters
	}{
		{name: "no knobs", status: 413, kind: "resource", timeout: defTimeout, budget: defBudget},

		{name: "timeout query", query: "timeout=1s", status: 413, kind: "resource", timeout: time.Second, budget: defBudget},
		{name: "timeout header", hTimeout: "1500ms", status: 413, kind: "resource", timeout: 1500 * time.Millisecond, budget: defBudget},
		{name: "timeout above the cap", query: "timeout=1h", status: 413, kind: "resource", timeout: maxTimeout, budget: defBudget},
		{name: "timeout header above the cap", hTimeout: "2540400h", status: 413, kind: "resource", timeout: maxTimeout, budget: defBudget},
		{name: "timeout query wins over header", hTimeout: "1h", query: "timeout=3s", status: 413, kind: "resource", timeout: 3 * time.Second, budget: defBudget},
		{name: "timeout query hides a bad header", hTimeout: "soon", query: "timeout=3s", status: 413, kind: "resource", timeout: 3 * time.Second, budget: defBudget},
		{name: "timeout 0", query: "timeout=0", status: 400, kind: "request"},
		{name: "timeout header 0", hTimeout: "0s", status: 400, kind: "request"},
		{name: "timeout negative", query: "timeout=-1s", status: 400, kind: "request"},
		{name: "timeout overflow", query: "timeout=99999999999h", status: 400, kind: "request"},
		{name: "timeout without unit", query: "timeout=5", status: 400, kind: "request"},
		{name: "timeout junk header", hTimeout: "soon", status: 400, kind: "request"},

		{name: "max-memory 0 is the default", query: "max-memory=0", status: 413, kind: "resource", timeout: defTimeout, budget: defBudget},
		{name: "max-memory header 0 is the default", hMem: "0", status: 413, kind: "resource", timeout: defTimeout, budget: defBudget},
		{name: "max-memory 0 with suffix", query: "max-memory=0g", status: 413, kind: "resource", timeout: defTimeout, budget: defBudget},
		{name: "max-memory 0 wins over header, still the default", hMem: "1g", query: "max-memory=0", status: 413, kind: "resource", timeout: defTimeout, budget: defBudget},
		{name: "max-memory bytes", query: "max-memory=2048", status: 413, kind: "resource", timeout: defTimeout, budget: 2048},
		{name: "max-memory k", query: "max-memory=6k", status: 413, kind: "resource", timeout: defTimeout, budget: 6 << 10},
		{name: "max-memory K", query: "max-memory=6K", status: 413, kind: "resource", timeout: defTimeout, budget: 6 << 10},
		{name: "max-memory kb", query: "max-memory=6kb", status: 413, kind: "resource", timeout: defTimeout, budget: 6 << 10},
		{name: "max-memory b", query: "max-memory=512b", status: 413, kind: "resource", timeout: defTimeout, budget: 512},
		{name: "max-memory m above the cap", query: "max-memory=16m", status: 413, kind: "resource", timeout: defTimeout, budget: budgetCap},
		{name: "max-memory mb above the cap", query: "max-memory=16MB", status: 413, kind: "resource", timeout: defTimeout, budget: budgetCap},
		{name: "max-memory g above the cap", hMem: "1g", status: 413, kind: "resource", timeout: defTimeout, budget: budgetCap},
		{name: "max-memory largest int64", query: "max-memory=9223372036854775807", status: 413, kind: "resource", timeout: defTimeout, budget: budgetCap},
		{name: "max-memory query wins over header", hMem: "1g", query: "max-memory=1k", status: 413, kind: "resource", timeout: defTimeout, budget: 1 << 10},
		{name: "max-memory query hides a bad header", hMem: "lots", query: "max-memory=1k", status: 413, kind: "resource", timeout: defTimeout, budget: 1 << 10},
		{name: "max-memory negative", query: "max-memory=-1", status: 400, kind: "request"},
		{name: "max-memory negative with suffix", hMem: "-4k", status: 400, kind: "request"},
		{name: "max-memory overflow", query: "max-memory=8589934592g", status: 400, kind: "request"},
		{name: "max-memory overflow without suffix", query: "max-memory=9223372036854775808", status: 400, kind: "request"},
		{name: "max-memory junk", hMem: "lots", status: 400, kind: "request"},
		{name: "max-memory fraction", query: "max-memory=1.5k", status: 400, kind: "request"},
		{name: "max-memory bare suffix", query: "max-memory=k", status: 400, kind: "request"},

		{name: "var", text: echo, query: "var=t=abc", status: 200, timeout: defTimeout, budget: defBudget, body: "<t>abc</t>"},
		{name: "var with $", text: echo, query: "var=" + url.QueryEscape("$t=abc"), status: 200, timeout: defTimeout, budget: defBudget, body: "<t>abc</t>"},
		{name: "var whose value holds =", text: echo, query: "var=" + url.QueryEscape("t=a=b"), status: 200, timeout: defTimeout, budget: defBudget, body: "<t>a=b</t>"},
		{name: "var with an empty value", text: echo, query: "var=t=", status: 200, timeout: defTimeout, budget: defBudget, body: "<t></t>"},
		{name: "var without =", text: echo, query: "var=t", status: 400, kind: "request"},
		{name: "var missing", text: echo, status: 400, kind: "bind", timeout: defTimeout, budget: defBudget},
		{name: "var nobody declared", text: echo, query: "var=t=abc&var=u=1", status: 400, kind: "bind", timeout: defTimeout, budget: defBudget},

		{name: "plan", query: "plan=nested", status: 413, kind: "resource", timeout: defTimeout, budget: defBudget},
		{name: "plan unknown", query: "plan=fastest", status: 400, kind: "plan", timeout: defTimeout, budget: defBudget},
		{name: "every knob at once", text: echo, hTimeout: "1h", hMem: "1g", query: "timeout=4s&max-memory=0&plan=nested&var=t=abc",
			status: 200, timeout: 4 * time.Second, budget: defBudget, body: "<t>abc</t>"},
	} {
		text := row.text
		if text == "" {
			text = slowQuery
		}
		target := ts.URL + "/query"
		if row.query != "" {
			target += "?" + row.query
		}
		req, err := http.NewRequest(http.MethodPost, target, strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if row.hTimeout != "" {
			req.Header.Set("X-Nalquery-Timeout", row.hTimeout)
		}
		if row.hMem != "" {
			req.Header.Set("X-Nalquery-Max-Memory", row.hMem)
		}

		d, terr := srv.requestTimeout(req)
		b, berr := srv.requestBudget(req)
		_, oerr := runOptions(req)
		if rejected := terr != nil || berr != nil || oerr != nil; rejected != (row.kind == "request") {
			t.Errorf("%s: knob errors %v / %v / %v, want rejected=%v", row.name, terr, berr, oerr, row.kind == "request")
		}
		if terr == nil && (d <= 0 || d > maxTimeout) {
			t.Errorf("%s: effective deadline %v outside (0, %v]", row.name, d, maxTimeout)
		}
		if berr == nil && (b <= 0 || b > budgetCap) {
			t.Errorf("%s: effective budget %d is looser than the configured default %d / cap %d", row.name, b, defBudget, budgetCap)
		}
		if row.kind != "request" && (d != row.timeout || b != row.budget) {
			t.Errorf("%s: effective deadline %v and budget %d, want %v and %d", row.name, d, b, row.timeout, row.budget)
		}

		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != row.status {
			t.Errorf("%s: status %d, want %d (%.200s)", row.name, resp.StatusCode, row.status, body)
			continue
		}
		if row.status != http.StatusOK {
			if kind := errKind(t, string(body)); kind != row.kind {
				t.Errorf("%s: error kind %q, want %q (%s)", row.name, kind, row.kind, body)
			}
		} else if string(body) != row.body {
			t.Errorf("%s: body %q, want %q", row.name, body, row.body)
		}
	}
}
