package dom

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Parse reads an XML document from r and builds the ordered node tree.
// Whitespace-only text between elements is dropped (the use-case DTDs are
// element-content DTDs where such whitespace is insignificant).
func Parse(r io.Reader, uri string) (*Document, error) {
	return parse(r, NewBuilder(uri))
}

func parse(r io.Reader, b *Builder) (*Document, error) {
	uri := b.tab.uri
	dec := xml.NewDecoder(r)
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dom: parse %s: %w", uri, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			b.Begin(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				b.Attrib(a.Name.Local, a.Value)
			}
			depth++
		case xml.EndElement:
			b.End()
			depth--
		case xml.CharData:
			if depth > 0 && len(bytes.TrimSpace(t)) > 0 {
				b.TextBytes(t)
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Ignored: not part of the paper's data model.
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("dom: parse %s: unbalanced document", uri)
	}
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("dom: parse %s: %w", uri, err)
	}
	return b.Done(), nil
}

// ParseString parses an XML document from a string.
func ParseString(s, uri string) (*Document, error) {
	return Parse(strings.NewReader(s), uri)
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
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// EscapeText escapes character data for element content.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "&<>") {
		return s
	}
	return textEscaper.Replace(s)
}

// EscapeAttr escapes character data for attribute values.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, `&<>"`) {
		return s
	}
	return attrEscaper.Replace(s)
}
