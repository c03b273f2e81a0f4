package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	nalquery "nalquery"
	"nalquery/internal/admission"
)

// errorBody is the JSON error envelope of every non-2xx answer. Kind is a
// stable machine-checkable discriminator ("parse", "translate", "bind",
// "plan", "timeout", "shed", "draining", "internal", "request", "resource",
// "too-large", "cancelled", "error").
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// writeError answers one JSON error body. It must only be called before
// the response is committed (on a committed stream the header write is a
// no-op and the payload would corrupt the stream — stream enders handle
// that case themselves).
func writeError(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg, Kind: kind})
}

// errorStatus maps the library's and the admission layer's typed errors
// onto HTTP status codes and error kinds.
func errorStatus(err error) (status int, kind string) {
	var pe *nalquery.ParseError
	var be *nalquery.BindError
	switch {
	case errors.Is(err, nalquery.ErrResourceExhausted):
		return http.StatusRequestEntityTooLarge, "resource"
	case errors.Is(err, nalquery.ErrInternal):
		return http.StatusInternalServerError, "internal"
	case errors.As(err, &pe):
		return http.StatusBadRequest, "parse"
	case errors.Is(err, nalquery.ErrTranslate):
		return http.StatusBadRequest, "translate"
	case errors.As(err, &be):
		return http.StatusBadRequest, "bind"
	case errors.Is(err, nalquery.ErrUnknownPlan), errors.Is(err, nalquery.ErrNoPlan):
		return http.StatusBadRequest, "plan"
	case errors.Is(err, admission.ErrShed):
		return http.StatusTooManyRequests, "shed"
	case errors.Is(err, admission.ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "cancelled"
	default:
		return http.StatusInternalServerError, "error"
	}
}

// spillWriter is a response's one buffer, holding at most limit bytes
// (the server's SpillBytes). It defers the response status until either the
// run produced limit bytes (commit to 200 and write the buffer out) or it
// finished. A run that fails before the threshold can therefore still
// answer with a proper error status and body. After commit it keeps
// buffering and writes out in chunks of limit bytes, so a larger result
// streams without ever buffering whole, and it is the engine's write-behind
// buffer too: it keeps its first write error (Err), which makes it a sink
// Results.WriteXML writes directly. The server keeps spent ones for reuse
// (getSpill).
type spillWriter struct {
	w           http.ResponseWriter
	limit       int
	status      int
	contentType string

	buf       []byte // cap limit once written to
	committed bool
	err       error // the first write error on w
}

func (sp *spillWriter) Write(p []byte) (int, error) { return spill(sp, p) }

func (sp *spillWriter) WriteString(s string) (int, error) { return spill(sp, s) }

func spill[T string | []byte](sp *spillWriter, p T) (int, error) {
	if cap(sp.buf) == 0 {
		sp.buf = make([]byte, 0, sp.limit)
	}
	n := len(p)
	for len(p) > 0 && sp.err == nil {
		k := copy(sp.buf[len(sp.buf):cap(sp.buf)], p)
		sp.buf, p = sp.buf[:len(sp.buf)+k], p[k:]
		if len(sp.buf) == cap(sp.buf) {
			sp.flush()
		}
	}
	return n - len(p), sp.err
}

// AvailableBuffer lends the buffer's free tail, as bufio.Writer's does: a
// number appended to it and written back is copied onto itself.
func (sp *spillWriter) AvailableBuffer() []byte { return sp.buf[len(sp.buf):len(sp.buf)] }

// Err returns the first error writing the response.
func (sp *spillWriter) Err() error { return sp.err }

// flush commits the response — its header and status — if it is not yet,
// and writes the buffer out.
func (sp *spillWriter) flush() {
	if !sp.committed {
		sp.committed = true
		sp.w.Header().Set("Content-Type", sp.contentType)
		sp.w.WriteHeader(sp.status)
	}
	if len(sp.buf) > 0 && sp.err == nil {
		_, sp.err = sp.w.Write(sp.buf)
	}
	sp.buf = sp.buf[:0]
}

// finish writes out what is buffered — a small response in one piece — and
// returns the first write error.
func (sp *spillWriter) finish() error {
	sp.flush()
	if f, ok := sp.w.(http.Flusher); ok && sp.err == nil {
		f.Flush()
	}
	return sp.err
}

// getSpill returns a response buffer for w: a spent one when the server's
// pool keeps one, else a new one, whose bytes are made on first write. Runs
// hold a buffer only under an admission slot, so at most MaxInFlight are in
// use at once, and the pool drops idle ones at garbage collection. A buffer
// never grows past SpillBytes: writes fill it to its capacity and write it
// out.
func (s *Server) getSpill(w http.ResponseWriter, contentType string) *spillWriter {
	sp, _ := s.spills.Get().(*spillWriter)
	if sp == nil {
		sp = new(spillWriter)
	}
	*sp = spillWriter{w: w, limit: s.cfg.SpillBytes, status: http.StatusOK,
		contentType: contentType, buf: sp.buf[:0]}
	return sp
}

// putSpill keeps sp for a later response.
func (s *Server) putSpill(sp *spillWriter) {
	sp.w = nil
	s.spills.Put(sp)
}

// streamResults writes a run's result in the requested format. The
// response status depends on how the run ends, which the spill buffer
// makes possible without materializing large results.
func (s *Server) streamResults(w http.ResponseWriter, r *http.Request, res *nalquery.Results) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "xml":
		s.streamXML(w, res)
	case "json":
		s.streamNDJSON(w, res)
	default:
		writeError(w, http.StatusBadRequest, "request",
			"unknown format "+format+" (want xml or json)")
	}
}

// streamXML serializes the run as the query's constructed XML document.
// A failure before the spill threshold answers with the mapped error
// status; after commitment — a run failure, or an error writing the
// response — the connection is aborted so the client reliably observes
// truncation instead of a silently short 200.
func (s *Server) streamXML(w http.ResponseWriter, res *nalquery.Results) {
	sp := s.getSpill(w, "application/xml; charset=utf-8")
	defer s.putSpill(sp)
	err := res.WriteXML(sp)
	if err == nil {
		err = sp.finish()
	}
	if err != nil {
		s.countRunError(err)
		if !sp.committed {
			status, kind := errorStatus(err)
			writeError(w, status, kind, err.Error())
			return
		}
		s.log.Printf("aborting committed stream: %v", err)
		panic(http.ErrAbortHandler)
	}
}

// jsonItem is one NDJSON line of a ?format=json response: a literal
// markup fragment or a typed value with its serialized form. A run that
// fails mid-stream ends with a final {"error","kind"} line instead of
// silent truncation.
type jsonItem struct {
	Kind  string `json:"kind"` // "markup" or "value"
	Type  string `json:"type,omitempty"`
	Value string `json:"value,omitempty"`
	XML   string `json:"xml"`
	Error string `json:"error,omitempty"`
}

func (s *Server) streamNDJSON(w http.ResponseWriter, res *nalquery.Results) {
	sp := s.getSpill(w, "application/x-ndjson")
	defer s.putSpill(sp)
	enc := json.NewEncoder(sp)
	for item := range res.Seq() {
		line := jsonItem{Kind: "markup", XML: item.XML()}
		if item.IsValue() {
			v := item.Value()
			line = jsonItem{Kind: "value", Type: v.Kind().String(), Value: v.String(), XML: item.XML()}
		}
		enc.Encode(line)
	}
	if err := res.Err(); err != nil {
		s.countRunError(err)
		if !sp.committed {
			status, kind := errorStatus(err)
			writeError(w, status, kind, err.Error())
			return
		}
		_, kind := errorStatus(err)
		enc.Encode(jsonItem{Kind: "error", Error: err.Error(), Type: kind})
	}
	if err := sp.finish(); err != nil {
		s.log.Printf("aborting committed stream: %v", err)
		panic(http.ErrAbortHandler)
	}
}
