package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"nalquery/internal/dom"
	"nalquery/internal/xmlgen"
)

func roundTrip(t *testing.T, d *dom.Document) *dom.Document {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveStats(&buf, d, nil); err != nil {
		t.Fatalf("save: %v", err)
	}
	out, _, err := LoadStats(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return out
}

func TestRoundTripSimple(t *testing.T) {
	d := dom.MustParseString(`<bib><book year="1994"><title>T &amp; x</title></book><b/></bib>`, "bib.xml")
	out := roundTrip(t, d)
	if out.URI != "bib.xml" {
		t.Fatalf("uri: %s", out.URI)
	}
	if dom.XMLString(out.RootElement()) != dom.XMLString(d.RootElement()) {
		t.Fatalf("serialization differs:\n%s\n%s",
			dom.XMLString(d.RootElement()), dom.XMLString(out.RootElement()))
	}
	if out.NumNodes() != d.NumNodes() {
		t.Fatalf("node counts: %d vs %d", out.NumNodes(), d.NumNodes())
	}
}

func TestRoundTripGeneratedDocs(t *testing.T) {
	cfg := xmlgen.DefaultConfig(50)
	for _, d := range []*dom.Document{
		xmlgen.Bib(cfg), xmlgen.Reviews(cfg), xmlgen.Prices(cfg),
		xmlgen.Users(cfg), xmlgen.Items(cfg), xmlgen.Bids(cfg),
		xmlgen.DBLP(xmlgen.DBLPConfig{Seed: 1, Publications: 50}),
	} {
		out := roundTrip(t, d)
		if dom.XMLString(out.RootElement()) != dom.XMLString(d.RootElement()) {
			t.Errorf("%s: round trip differs", d.URI)
		}
	}
}

// TestRoundTripProperty: random documents survive save/load byte-exactly.
func TestRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := dom.NewBuilder("rand.xml")
		b.Begin("root")
		var build func(depth int)
		build = func(depth int) {
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				switch {
				case depth < 4 && rng.Intn(2) == 0:
					b.Begin(randName(rng))
					if rng.Intn(2) == 0 {
						b.Attrib(randName(rng), randText(rng))
					}
					build(depth + 1)
					b.End()
				default:
					b.Text(randText(rng))
				}
			}
		}
		build(0)
		b.End()
		d := b.Done()

		var buf bytes.Buffer
		if err := SaveStats(&buf, d, nil); err != nil {
			return false
		}
		out, _, err := LoadStats(&buf)
		if err != nil {
			return false
		}
		return dom.XMLString(out.RootElement()) == dom.XMLString(d.RootElement()) &&
			out.NumNodes() == d.NumNodes()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randName(rng *rand.Rand) string {
	names := []string{"a", "bk", "title", "x-y", "n_1"}
	return names[rng.Intn(len(names))]
}

func randText(rng *rand.Rand) string {
	chunks := []string{"hello", "wörld", "<esc>&", `"q"`, "42", " "}
	return chunks[rng.Intn(len(chunks))]
}

func TestDocumentOrderRebuilt(t *testing.T) {
	d := dom.MustParseString(`<r><a x="1"><b/></a><c/></r>`, "o.xml")
	out := roundTrip(t, d)
	var nodes []*dom.Node
	nodes = out.Root.Descendants("", nodes)
	for i := 1; i < len(nodes); i++ {
		if dom.CompareOrder(nodes[i-1], nodes[i]) >= 0 {
			t.Fatalf("document order not rebuilt")
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE!\nxxxx"),
		"truncated": append([]byte(magic), 0x05),
	}
	for name, data := range cases {
		if _, _, err := LoadStats(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Corrupt string length.
	var buf bytes.Buffer
	d := dom.MustParseString(`<a>x</a>`, "a.xml")
	if err := SaveStats(&buf, d, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(magic)] = 0xFF // huge varint start for the uri length
	if _, _, err := LoadStats(bytes.NewReader(data)); err == nil {
		t.Errorf("corrupt length must fail")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bib.nalb")
	d := xmlgen.Bib(xmlgen.DefaultConfig(20))
	if err := SaveFileStats(path, d, nil); err != nil {
		t.Fatal(err)
	}
	out, _, err := LoadFileStats(path)
	if err != nil {
		t.Fatal(err)
	}
	if dom.XMLString(out.RootElement()) != dom.XMLString(d.RootElement()) {
		t.Fatalf("file round trip differs")
	}
	// Binary form is more compact than the XML serialization for these
	// documents (no close tags).
	info, _ := os.Stat(path)
	xmlLen := len(dom.XMLString(d.RootElement()))
	if info.Size() >= int64(xmlLen) {
		t.Logf("binary %d vs xml %d bytes", info.Size(), xmlLen)
	}
	if _, _, err := LoadFileStats(filepath.Join(dir, "missing.nalb")); err == nil {
		t.Fatalf("missing file must error")
	}
}

func TestMagicPrefixStable(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveStats(&buf, dom.MustParseString(`<a/>`, "a.xml"), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), magic) {
		t.Fatalf("magic prefix missing")
	}
}

// TestLoadRejectsNamesNoParseYields: an element or attribute name is an XML
// Name, as it is when a document is parsed. A file naming an element `a/b`
// or `@x` would give it an absolute path that reads as the paths of other
// nodes (`//@*` would select the element), so the load fails instead; names
// an XML parse yields, with a colon or outside ASCII, still load.
func TestLoadRejectsNamesNoParseYields(t *testing.T) {
	image := func(elem, attr string) []byte {
		b := dom.NewBuilder("n.xml")
		b.Begin("r").Begin(elem).Attrib(attr, "v").Text("t").End().End()
		var buf bytes.Buffer
		if err := SaveStats(&buf, b.Done(), nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct{ elem, attr string }{
		{"a/b", "id"}, {"@x", "id"}, {"e", "@x"}, {"e", "a/b"}, {"1e", "id"}, {"e", "x y"},
		{"", "id"}, {"e", ""},
	} {
		_, _, err := LoadStats(bytes.NewReader(image(tc.elem, tc.attr)))
		if err == nil || !strings.HasPrefix(err.Error(), "store: ") {
			t.Errorf("element %q, attribute %q: err = %v, want a store: error", tc.elem, tc.attr, err)
		}
	}
	for _, tc := range []struct{ elem, attr string }{{"a:b", "x:id"}, {"wörld", "ñ"}, {"_e.1-2", "a:"}} {
		d, _, err := LoadStats(bytes.NewReader(image(tc.elem, tc.attr)))
		if err != nil {
			t.Errorf("element %q, attribute %q: %v", tc.elem, tc.attr, err)
			continue
		}
		if got, want := dom.XMLString(d.Root), `<r><`+tc.elem+` `+tc.attr+`="v">t</`+tc.elem+`></r>`; got != want {
			t.Errorf("loads to %s, want %s", got, want)
		}
	}
}
