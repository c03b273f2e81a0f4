package dom_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value/valuetest"
	"nalquery/internal/xmlgen"
)

// The rules of the XML the loader accepts, one row each: the scanner must
// decide and build as encoding/xml's Decoder loop (dom.ParseStd) does.
// want is the table as dump writes it, or "error". Each row is also a seed
// of FuzzLoadXML, committed under testdata/fuzz/FuzzLoadXML/<name>.
var scanRules = []struct{ name, in, want string }{
	// XML declaration and DOCTYPE.
	{"decl-version-1.0", `<?xml version="1.0"?><a/>`, `<a/>`},
	{"decl-version-1.1", `<?xml version="1.1"?><a/>`, "error"},
	{"decl-encoding-utf8-any-case", `<?xml version='1.0' encoding='uTf-8'?><a/>`, `<a/>`},
	{"decl-encoding-latin1", `<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, "error"},
	{"doctype-skipped", `<!DOCTYPE a [<!ENTITY e "x"> <!-- <a> --> <!ELEMENT a (#PCDATA)>]><a>t</a>`, `<a>"t"</a>`},
	{"doctype-entity-not-expanded", `<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>`, "error"},
	{"bom", "\uFEFF<a/>", `<a/>`},
	// Entities and characters.
	{"predefined-entities", `<a b="&lt;&gt;&amp;&apos;&quot;">&lt;&gt;&amp;&apos;&quot;</a>`, `<a b="<>&'\"">"<>&'\""</a>`},
	{"char-refs", `<a>&#65;&#x42;&#x1F600;</a>`, `<a>"AB😀"</a>`},
	{"char-ref-upper-x", `<a>&#X41;</a>`, "error"},
	{"char-ref-non-char", `<a>&#0;</a>`, "error"},
	{"char-ref-surrogate", `<a>&#xD800;</a>`, "<a>\"\ufffd\"</a>"},
	{"char-ref-no-semicolon", `<a>&#65</a>`, "error"},
	{"cr-normalized", "<a b=\"x\r\ny\rz\">p\r\nq\rr</a>", `<a b="x\ny\nz">"p\nq\nr"</a>`},
	{"cr-roundtrip", `<a b="x&#xD;y">p&#xD;q&#13;</a>`, `<a b="x\ry">"p\rq\r"</a>`},
	{"invalid-utf8", "<a>\xff</a>", "error"},
	{"control-char", "<a>\x01</a>", "error"},
	// What splits text, and which text is dropped.
	{"cdata-splits-text", `<a>x<![CDATA[<y>]]>z</a>`, `<a>"x""<y>""z"</a>`},
	{"comment-splits-text", `<a>x<!--c-->z</a>`, `<a>"x""z"</a>`},
	{"pi-dropped", `<a>x<?p d?>z</a>`, `<a>"x""z"</a>`},
	{"xml-space-dropped", "<a> \t\r\n<b/><![CDATA[ ]]>\n</a>", `<a><b/></a>`},
	{"nbsp-kept", `<a>&#xA0;</a>`, `<a>"\u00a0"</a>`},
	{"raw-nbsp-kept", "<a>\u00a0<b/>\u3000</a>", `<a>"\u00a0"<b/>"\u3000"</a>`},
	// Errors in comments, text and attributes.
	{"comment-double-dash", `<a><!-- x -- y --></a>`, "error"},
	{"text-cdata-end", `<a>]]></a>`, "error"},
	{"attr-cdata-end", `<a b="]]>"/>`, `<a b="]]>"/>`},
	{"attr-lt", `<a b="<"/>`, "error"},
	{"attr-unquoted", `<a b=1/>`, "error"},
	{"attr-missing-value", `<a b/>`, "error"},
	{"attr-no-space-between", `<a b="1"c='2'/>`, `<a b="1" c="2"/>`},
	// Names.
	{"prefix-dropped", `<x:a x:b="1"></x:a>`, `<a b="1"/>`},
	{"two-colons", `<a:b:c/>`, "error"},
	{"qname-local-not-name", `<a:0/>`, "error"},
	{"leading-colon", `<:a :b="1"/>`, `<:a :b="1"/>`},
	{"trailing-colon", `<a:></a:>`, `<a:/>`},
	{"end-tag-prefix-differs", `<x:a></y:a>`, "error"},
	{"end-tag-prefix-missing", `<x:a></a>`, "error"},
	{"name-starts-with-digit", `<1a/>`, "error"},
	{"non-ascii-name", `<é ü="1"/>`, `<é ü="1"/>`},
	{"nbsp-in-name", "<a\u00a0b=\"1\"/>", "error"},
	{"xmlns-dropped", `<a xmlns="u" xmlns:p="v" p:xmlns="w" b="1"/>`, `<a b="1"/>`},
	{"prefix-bound-to-xmlns", `<r><a p:b="1" xmlns:p="xmlns"/><c p:d="2"/></r>`, `<r><a/><c d="2"/></r>`},
	{"prefix-rebound", `<r xmlns:p="xmlns" p:a="1"><b xmlns:p="u" p:c="2"/><d p:e="3"/></r>`, `<r><b c="2"/><d/></r>`},
	{"duplicate-attrs-kept", `<a b="1" b="2"/>`, `<a b="1" b="2"/>`},
	// Outside the root.
	{"text-outside-root-dropped", "x<a/>y", `<a/>`},
	{"bad-text-outside-root", "\x01<a/>", "error"},
	{"several-roots", `<a/><b/>`, `<a/><b/>`},
	{"empty", ``, ``},
	{"unclosed", `<a>`, "error"},
	{"stray-end-tag", `</a>`, "error"},
	{"error-line", "<a>\n<b>\n</a>", "error"},
}

// dump writes a table as XML with each text node and attribute value
// quoted as Go strings, so adjacent text nodes stay apart and a dropped one
// shows.
func dump(d *dom.Document) string {
	var sb strings.Builder
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		switch n.Kind() {
		case dom.KindText:
			fmt.Fprintf(&sb, "%q", n.Data())
			return
		case dom.KindElement:
			sb.WriteString("<" + n.Name())
			for a := n.FirstAttr(); a != nil; a = a.NextSibling() {
				fmt.Fprintf(&sb, " %s=%q", a.Name(), a.Data())
			}
			if n.FirstChild() == nil {
				sb.WriteString("/>")
				return
			}
			sb.WriteString(">")
		}
		for c := n.FirstChild(); c != nil; c = c.NextSibling() {
			walk(c)
		}
		if n.Kind() == dom.KindElement {
			sb.WriteString("</" + n.Name() + ">")
		}
	}
	walk(d.Root)
	return sb.String()
}

// sameTable compares two tables rank by rank.
func sameTable(a, b *dom.Document) error {
	if a.NumNodes() != b.NumNodes() {
		return fmt.Errorf("%d nodes, want %d", a.NumNodes(), b.NumNodes())
	}
	for i := 0; i < a.NumNodes(); i++ {
		x, y := a.Node(i), b.Node(i)
		px, py := -1, -1
		if p := x.Parent(); p != nil {
			px = p.Order()
		}
		if p := y.Parent(); p != nil {
			py = p.Order()
		}
		if x.Kind() != y.Kind() || x.Name() != y.Name() || x.Data() != y.Data() ||
			x.Order() != y.Order() || x.End() != y.End() || px != py {
			return fmt.Errorf("rank %d: kind %v name %q data %q order %d end %d parent %d, want %v %q %q %d %d %d",
				i, x.Kind(), x.Name(), x.Data(), x.Order(), x.End(), px,
				y.Kind(), y.Name(), y.Data(), y.Order(), y.End(), py)
		}
	}
	return nil
}

var errLine = regexp.MustCompile(`^dom: parse [^:]*: XML syntax error on line (\d+): `)

// checkScan holds the scanner to the oracle on one input: the same
// decision, the same table, and on accept a serialization that is a
// fixpoint. A rejection names the line, the oracle's whenever the oracle
// names one. It returns the scanner's table, or nil on reject.
func checkScan(t *testing.T, in string) *dom.Document {
	t.Helper()
	got, err := dom.ParseString(in, "in.xml")
	want, stdErr := dom.ParseStd(in, "in.xml")
	if (err == nil) != (stdErr == nil) {
		t.Fatalf("%q: scanner error %v, encoding/xml error %v", in, err, stdErr)
	}
	if err != nil {
		m := errLine.FindStringSubmatch(err.Error())
		if m == nil {
			t.Fatalf("%q: error %q names no line", in, err)
		}
		if sm := errLine.FindStringSubmatch(stdErr.Error()); sm != nil && sm[1] != m[1] {
			t.Fatalf("%q: error %q, encoding/xml %q", in, err, stdErr)
		}
		return nil
	}
	if err := sameTable(got, want); err != nil {
		t.Fatalf("%q: scanner and encoding/xml tables differ: %v", in, err)
	}
	s1 := dom.XMLString(got.Root)
	if s2 := reprint(t, s1); s2 != s1 {
		t.Fatalf("%q: serialization is no fixpoint:\n%q\n%q", in, s1, s2)
	}
	return got
}

func reprint(t *testing.T, s string) string {
	t.Helper()
	d, err := dom.ParseString(s, "reprint.xml")
	if err != nil {
		t.Fatalf("serialization %q does not parse: %v", s, err)
	}
	return dom.XMLString(d.Root)
}

// FuzzLoadXML holds the scanner to encoding/xml on arbitrary input (see
// checkScan), and what it loads to the atom rule (valuetest.CheckRows). Its
// corpus holds one seed per rule of scanRules and a small generated bib.xml.
func FuzzLoadXML(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		if d := checkScan(t, in); d != nil {
			if err := valuetest.CheckRows(d); err != nil {
				t.Fatalf("%q: %v", in, err)
			}
		}
	})
}

// TestScanMatchesEncodingXML is FuzzLoadXML's deterministic twin: the rule
// rows with their expected tables, then the use-case documents and DBLP,
// serialized and read back, each equal to the table the generator built.
func TestScanMatchesEncodingXML(t *testing.T) {
	for _, r := range scanRules {
		got := checkScan(t, r.in)
		if got != nil {
			if err := valuetest.CheckRows(got); err != nil {
				t.Errorf("%s: %v", r.name, err)
			}
		}
		if got == nil && r.want != "error" || got != nil && dump(got) != r.want {
			var d string
			if got != nil {
				d = dump(got)
			}
			t.Errorf("%s: %q reads as %q, want %q", r.name, r.in, d, r.want)
		}
		seed := filepath.Join("testdata", "fuzz", "FuzzLoadXML", r.name)
		if b, err := os.ReadFile(seed); err != nil || string(b) != fmt.Sprintf("go test fuzz v1\nstring(%q)\n", r.in) {
			t.Errorf("%s: seed file %s does not hold the row (%v)", r.name, seed, err)
		}
	}
	cfg := xmlgen.DefaultConfig(100)
	for _, gen := range []*dom.Document{
		xmlgen.Bib(cfg), xmlgen.Reviews(cfg), xmlgen.Prices(cfg), xmlgen.Users(cfg),
		xmlgen.Items(cfg), xmlgen.Bids(cfg), xmlgen.DBLP(xmlgen.DBLPConfig{Seed: 42, Publications: 100}),
	} {
		got := checkScan(t, dom.XMLString(gen.Root))
		if got == nil {
			t.Fatalf("%s: serialization rejected", gen.URI)
		}
		if err := sameTable(got, gen); err != nil {
			t.Errorf("%s: read back: %v", gen.URI, err)
		}
		if err := valuetest.CheckRows(got); err != nil {
			t.Errorf("%s: read back: %v", gen.URI, err)
		}
	}
}
