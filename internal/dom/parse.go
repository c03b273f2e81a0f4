package dom

import (
	"fmt"
	"io"
	"strings"
)

// Parse reads an XML document from r and builds the ordered node table. It
// reads r to the end first, into one string, and scans that (see
// ParseString); an error reading r is returned wrapped, so errors.As finds
// it.
func Parse(r io.Reader, uri string) (*Document, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, fmt.Errorf("dom: parse %s: %w", uri, err)
	}
	return ParseString(sb.String(), uri)
}

// ParseString parses an XML document held in s, without copying s: the
// table keeps its own copies of the names and values it holds. It accepts
// the XML that encoding/xml's Decoder accepts with its defaults (docs/API.md
// lists that subset). Every character-data token consisting of XML white
// space only (#x20, #x9, #xD, #xA) is dropped — the use-case DTDs are
// element-content DTDs where such whitespace is insignificant — and so is
// text outside the root element. Errors name the line they were found on.
func ParseString(s, uri string) (*Document, error) {
	return parse(s, NewBuilder(uri))
}

func parse(s string, b *Builder) (*Document, error) {
	p := scanner{s: s, b: b}
	err := p.run()
	if err == nil {
		err = b.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("dom: parse %s: %w", b.tab.uri, err)
	}
	return b.Done(), nil
}

// MustParseString parses a document and panics on error. For tests and
// examples.
func MustParseString(s, uri string) *Document {
	d, err := ParseString(s, uri)
	if err != nil {
		//nal:allow-panic Must* contract on authored test/example input; production parsing goes through Parse/ParseString (mustparse confines callers)
		panic(err)
	}
	return d
}

// WriteXML serializes the subtree rooted at n to w without insignificant
// whitespace. Attribute values and text are escaped.
func WriteXML(w io.Writer, n *Node) error {
	sw := &stickyWriter{w: w}
	writeNode(sw, n)
	return sw.err
}

// XMLString serializes the subtree rooted at n to a string.
func XMLString(n *Node) string {
	var sb strings.Builder
	_ = WriteXML(&sb, n)
	return sb.String()
}

type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) str(v string) {
	if s.err == nil {
		_, s.err = io.WriteString(s.w, v)
	}
}

// writeNode streams the rows of n's subtree in document order. open is the
// innermost element whose end tag is still due; it is written when the scan
// reaches the element's subtree end, and the parent rank leads to the next.
func writeNode(w *stickyWriter, n *Node) {
	if n.kind == KindAttribute {
		writeAttr(w, n)
		return
	}
	nodes := n.tab.nodes
	var open *Node
	closeOpen := func() {
		w.str("</")
		w.str(open.Name())
		w.str(">")
		if open == n || nodes[open.parent].kind != KindElement {
			open = nil
		} else {
			open = &nodes[open.parent]
		}
	}
	for i := n.pre; i < n.end; i++ {
		for open != nil && open.end == i {
			closeOpen()
		}
		switch c := &nodes[i]; c.kind {
		case KindText:
			w.str(EscapeText(c.Data()))
		case KindElement:
			w.str("<")
			w.str(c.Name())
			for i+1 < c.end && nodes[i+1].kind == KindAttribute {
				i++
				w.str(" ")
				writeAttr(w, &nodes[i])
			}
			if i+1 == c.end {
				w.str("/>")
			} else {
				w.str(">")
				open = c
			}
		}
	}
	for open != nil {
		closeOpen()
	}
}

func writeAttr(w *stickyWriter, a *Node) {
	w.str(a.Name())
	w.str(`="`)
	w.str(EscapeAttr(a.Data()))
	w.str(`"`)
}

var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#xD;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\r", "&#xD;")
)

// EscapeText escapes character data for element content. A CR is written
// as a character reference: a reader turns a raw one into LF.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "&<>\r") {
		return s
	}
	return textEscaper.Replace(s)
}

// EscapeAttr escapes character data for attribute values, CR as in
// EscapeText.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, "&<>\"\r") {
		return s
	}
	return attrEscaper.Replace(s)
}
