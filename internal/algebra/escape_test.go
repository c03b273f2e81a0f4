package algebra_test

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/dom"
	"nalquery/internal/stats"
	"nalquery/internal/store"
	"nalquery/internal/value"
)

// The serializer's reference: escaping as strings.Replacer did it, and a
// subtree walked through the node accessors.
var (
	refText = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#xD;").Replace
	refAttr = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\r", "&#xD;").Replace
)

func refXML(sb *strings.Builder, n *dom.Node) {
	switch n.Kind() {
	case dom.KindText:
		sb.WriteString(refText(n.Data()))
		return
	case dom.KindAttribute:
		sb.WriteString(n.Name() + `="` + refAttr(n.Data()) + `"`)
		return
	case dom.KindElement:
		sb.WriteString("<" + n.Name())
		for a := n.FirstAttr(); a != nil; a = a.NextSibling() {
			sb.WriteString(" ")
			refXML(sb, a)
		}
		if n.FirstChild() == nil {
			sb.WriteString("/>")
			return
		}
		sb.WriteString(">")
	}
	for c := n.FirstChild(); c != nil; c = c.NextSibling() {
		refXML(sb, c)
	}
	if n.Kind() == dom.KindElement {
		sb.WriteString("</" + n.Name() + ">")
	}
}

// escapeTexts holds each character the serializer escapes, alone and among
// others, clean texts beside them, and texts longer than dom.AtomCutoff
// (whose rows carry no atom).
var escapeTexts = []string{
	"", "plain", "Title 7", "1995", "a&b", "<", ">", `say "hi"`, "line\rbreak", `&<>"` + "\r",
	"Tom & Jerry", "x > y", `'single'`, strings.Repeat("long clean text ", 6),
	strings.Repeat("long ", 15) + "& dirty",
}

// escapeDocs builds, for each text, a document holding it as element text
// and one holding it as an attribute value, each beside clean siblings.
func escapeDocs(s string) []*dom.Document {
	inText := dom.NewBuilder("t.xml").Begin("r").Attrib("id", "1").
		Begin("a").Text(s).End().Begin("b").Attrib("k", "v").Text("clean").End().
		Begin("c").Begin("d").Text("x").End().Text(s).End().Begin("e").End().End().Done()
	inAttr := dom.NewBuilder("a.xml").Begin("r").
		Begin("a").Attrib("v", s).Attrib("w", "ok").Text("clean").End().
		Begin("b").Attrib("v", s).End().End().Done()
	return []*dom.Document{inText, inAttr}
}

// loads reads d back each way a document is loaded: from its XML text, from
// NALB1 and from NALB2; d itself is the Builder's.
func loads(t *testing.T, d *dom.Document) map[string]*dom.Document {
	t.Helper()
	out := map[string]*dom.Document{"builder": d}
	var sb strings.Builder
	refXML(&sb, d.RootElement())
	p, err := dom.ParseString(sb.String(), d.URI)
	if err != nil {
		t.Fatalf("parse %q: %v", sb.String(), err)
	}
	out["parse"] = p
	for name, st := range map[string]*stats.DocStats{"nalb1": nil, "nalb2": stats.Analyze(d)} {
		var buf bytes.Buffer
		if err := store.SaveStats(&buf, d, st); err != nil {
			t.Fatal(err)
		}
		l, _, err := store.LoadStats(&buf)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = l
	}
	return out
}

// TestSerializationMatchesReference: whichever way a document holding
// markup characters was loaded, dom.WriteXML and WriteValue write every node
// of it — element, attribute, text, and its string value — as the reference
// escaping writes it, into a bytes.Buffer and through a bufio.Writer.
func TestSerializationMatchesReference(t *testing.T) {
	for _, s := range escapeTexts {
		for _, d := range escapeDocs(s) {
			for how, l := range loads(t, d) {
				for i := 0; i < l.NumNodes(); i++ {
					n := l.Node(i)
					var want strings.Builder
					refXML(&want, n)
					var got bytes.Buffer
					if err := dom.WriteXML(&got, n); err != nil || got.String() != want.String() {
						t.Errorf("%s %q: WriteXML(%s node %d) = %q, want %q (%v)", how, s, n.Kind(), i, got.String(), want.String(), err)
					}
					wantValue := want.String()
					if n.Kind() == dom.KindText || n.Kind() == dom.KindAttribute {
						wantValue = refText(n.Data())
					}
					checkWriteValue(t, how, s, value.NodeVal{Node: n}, wantValue)
					checkWriteValue(t, how, s, value.NodeText{Node: n}, refText(n.StringValue()))
				}
			}
		}
		checkWriteValue(t, "computed", s, value.Str(s), refText(s))
		if dom.EscapeText(s) != refText(s) || dom.EscapeAttr(s) != refAttr(s) {
			t.Errorf("%q: EscapeText %q, EscapeAttr %q", s, dom.EscapeText(s), dom.EscapeAttr(s))
		}
	}
}

func checkWriteValue(t *testing.T, how, s string, v value.Value, want string) {
	t.Helper()
	var bb, under bytes.Buffer
	bw := bufio.NewWriterSize(&under, 16)
	algebra.WriteValue(&bb, v)
	algebra.WriteValue(bw, v)
	bw.Flush()
	if bb.String() != want || under.String() != want {
		t.Errorf("%s %q: WriteValue(%#v) = %q (buffer), %q (bufio), want %q", how, s, v, bb.String(), under.String(), want)
	}
}

// TestWriteSubtreeAllocatesNothing: an element subtree, its rows written as
// they are or escaped, goes into a pre-grown buffer without one allocation.
func TestWriteSubtreeAllocatesNothing(t *testing.T) {
	d := dom.NewBuilder("t.xml").Begin("bib").
		Begin("book").Attrib("year", "1994").Attrib("note", `a "b"`).
		Begin("title").Text("TCP/IP & more").End().Begin("price").Text("65.95").End().Begin("e").End().End().
		End().Done()
	book := value.Value(value.NodeVal{Node: d.RootElement().FirstChildElement("book")})
	var buf bytes.Buffer
	buf.Grow(1 << 10)
	if a := testing.AllocsPerRun(100, func() { buf.Reset(); algebra.WriteValue(&buf, book) }); a != 0 {
		t.Errorf("an element subtree into a bytes.Buffer: %.1f allocations, want 0", a)
	}
	if got, want := buf.String(), `<book year="1994" note="a &quot;b&quot;"><title>TCP/IP &amp; more</title><price>65.95</price><e/></book>`; got != want {
		t.Errorf("wrote %q, want %q", got, want)
	}
}
