package store

import (
	"bytes"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/stats"
	"nalquery/internal/xmlgen"
)

// TestStatsRoundTrip: a version-2 image restores the document byte-exactly
// and the statistics field-exactly.
func TestStatsRoundTrip(t *testing.T) {
	d := xmlgen.Bib(xmlgen.DefaultConfig(50))
	st := stats.Analyze(d)
	var buf bytes.Buffer
	if err := SaveStats(&buf, d, st); err != nil {
		t.Fatalf("save: %v", err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("NALB2\n")) {
		t.Fatalf("stats image must carry the v2 magic, got %q", buf.Bytes()[:6])
	}
	out, ost, err := LoadStats(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if dom.XMLString(out.RootElement()) != dom.XMLString(d.RootElement()) {
		t.Fatalf("document round trip differs")
	}
	if ost == nil {
		t.Fatalf("v2 load returned no statistics")
	}
	if ost.Elements != st.Elements || len(ost.Paths) != len(st.Paths) {
		t.Fatalf("shape differs: %d/%d elements, %d/%d paths",
			ost.Elements, st.Elements, len(ost.Paths), len(st.Paths))
	}
	for i, want := range st.Paths {
		got := ost.Paths[i]
		if *got != *want {
			t.Fatalf("path %d differs:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestStatsBackwardCompat: version-1 images still load — with nil stats —
// through both Load and LoadStats, and nil stats on Save keep the v1 magic.
func TestStatsBackwardCompat(t *testing.T) {
	d := dom.MustParseString(`<bib><book year="1994"><title>T</title></book></bib>`, "bib.xml")
	var v1 bytes.Buffer
	if err := SaveStats(&v1, d, nil); err != nil {
		t.Fatalf("save: %v", err)
	}
	if !bytes.HasPrefix(v1.Bytes(), []byte("NALB1\n")) {
		t.Fatalf("nil-stats save must keep the v1 magic, got %q", v1.Bytes()[:6])
	}
	img := v1.Bytes()

	out, st, err := LoadStats(bytes.NewReader(img))
	if err != nil || dom.XMLString(out.RootElement()) != dom.XMLString(d.RootElement()) {
		t.Fatalf("v1 LoadStats: %v", err)
	}
	if st != nil {
		t.Fatalf("v1 image must carry no statistics")
	}
}

// TestStatsLoadIgnoresTrailer: the statistics trailer leaves the document
// alone — a v2 image loads to the document its v1 image does.
func TestStatsLoadIgnoresTrailer(t *testing.T) {
	d := xmlgen.Users(xmlgen.DefaultConfig(20))
	var v1, v2 bytes.Buffer
	if err := SaveStats(&v1, d, nil); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := SaveStats(&v2, d, stats.Analyze(d)); err != nil {
		t.Fatalf("save: %v", err)
	}
	plain, _, err := LoadStats(&v1)
	if err != nil {
		t.Fatalf("LoadStats over v1 image: %v", err)
	}
	out, _, err := LoadStats(&v2)
	if err != nil || dom.XMLString(out.Root) != dom.XMLString(plain.Root) || out.NumNodes() != d.NumNodes() {
		t.Fatalf("LoadStats over v2 image: %v", err)
	}
}

// TestStatsTruncatedTrailer: chopping the stats trailer yields an error,
// never a panic.
func TestStatsTruncatedTrailer(t *testing.T) {
	d := xmlgen.Items(xmlgen.DefaultConfig(30))
	var buf bytes.Buffer
	if err := SaveStats(&buf, d, stats.Analyze(d)); err != nil {
		t.Fatalf("save: %v", err)
	}
	img := buf.Bytes()
	var v1 bytes.Buffer
	if err := SaveStats(&v1, d, nil); err != nil {
		t.Fatalf("save v1: %v", err)
	}
	docLen := v1.Len() // magic+doc bytes are identical apart from the magic
	for cut := docLen; cut < len(img); cut += (len(img)-docLen)/19 + 1 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadStats panicked at cut %d: %v", cut, r)
				}
			}()
			if _, _, err := LoadStats(bytes.NewReader(img[:cut])); err == nil {
				t.Fatalf("truncated trailer at %d loaded without error", cut)
			}
		}()
	}
}

// TestStatsCorruptPathCount: an absurd declared path count errors instead of
// allocating.
func TestStatsCorruptPathCount(t *testing.T) {
	d := dom.MustParseString(`<a><b>x</b></a>`, "a.xml")
	var buf bytes.Buffer
	if err := SaveStats(&buf, d, stats.Analyze(d)); err != nil {
		t.Fatalf("save: %v", err)
	}
	img := buf.Bytes()
	// Rewrite the trailer: locate it by re-encoding the doc-only prefix.
	var v1 bytes.Buffer
	SaveStats(&v1, d, nil)
	docLen := v1.Len()
	corrupt := append([]byte{}, img[:docLen]...)
	// elements=1, then a huge uvarint path count.
	corrupt = append(corrupt, 0x01, 0xff, 0xff, 0xff, 0xff, 0x7f)
	_, _, err := LoadStats(bytes.NewReader(corrupt))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("corrupt path count: err = %v", err)
	}
}
