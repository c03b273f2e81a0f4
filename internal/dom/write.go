package dom

import (
	"io"
	"strings"
)

// Serialization. What a row's serialized form needs beyond its slab bytes is
// fixed when the document is built: Done renders every name's tags once
// (tagText), and sets rowClean on every row whose string value holds no
// character the serializer escapes (fixAtoms), so writing a clean row is one
// WriteString of its slab range. The writers below write straight into the
// caller's sink, which keeps its own write error (a bufio.Writer, a
// bytes.Buffer, the serving tier's response buffer); WriteXML is the one
// that adapts an io.Writer and reports its error.

// rowClean is the bit of a row's atom tag (Node.atag) that says its string
// value needs no escaping: for a text row, no & < > or CR; for an attribute
// row, none of those nor "; for an element or document row, no text row of
// its subtree needs escaping. Atom masks it out.
const rowClean byte = 0x80

// The characters escaped in element content and in attribute values, and
// the reference each is written as. A CR is written as a character
// reference: a reader turns a raw one into LF.
const (
	textMarkup = "&<>\r"
	attrMarkup = "&<>\r\""
)

var (
	textRefs = [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '\r': "&#xD;"}
	attrRefs = [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '\r': "&#xD;", '"': "&quot;"}
)

// hasMarkup reports whether s holds one of chars, one vectorized IndexByte
// scan per character.
func hasMarkup(s, chars string) bool {
	for i := 0; i < len(chars); i++ {
		if strings.IndexByte(s, chars[i]) >= 0 {
			return true
		}
	}
	return false
}

// writeEscaped writes s with every byte refs names replaced by its
// reference; the runs between them are written as they are.
func writeEscaped(w io.StringWriter, s string, refs *[256]string) {
	last := 0
	for i := 0; i < len(s); i++ {
		if r := refs[s[i]]; r != "" {
			w.WriteString(s[last:i])
			w.WriteString(r)
			last = i + 1
		}
	}
	w.WriteString(s[last:])
}

func escape(s, markup string, refs *[256]string) string {
	if !hasMarkup(s, markup) {
		return s
	}
	var sb strings.Builder
	writeEscaped(&sb, s, refs)
	return sb.String()
}

// EscapeText escapes character data for element content: & < > and CR.
func EscapeText(s string) string { return escape(s, textMarkup, &textRefs) }

// EscapeAttr escapes character data for attribute values: what EscapeText
// escapes, and ".
func EscapeAttr(s string) string { return escape(s, attrMarkup, &attrRefs) }

// tagText is one name's markup, rendered once per name table by Done: open
// is "<name>" (less its last byte, it starts a tag with attributes or an
// empty element), close is "</name>" and attr is ` name="`. All three are
// substrings of one string.
type tagText struct{ open, close, attr string }

func renderTags(names []string) []tagText {
	tags := make([]tagText, len(names))
	for i, name := range names {
		s := "<" + name + "></" + name + "> " + name + `="`
		n := len(name)
		tags[i] = tagText{open: s[:n+2], close: s[n+2 : 2*n+5], attr: s[2*n+5:]}
	}
	return tags
}

// WriteXML serializes the subtree rooted at n to w without insignificant
// whitespace. Attribute values and text are escaped. The error is w's first
// write error.
func WriteXML(w io.Writer, n *Node) error {
	sw := &stickyWriter{w: w}
	WriteNode(sw, n)
	return sw.err
}

// XMLString serializes the subtree rooted at n to a string.
func XMLString(n *Node) string {
	var sb strings.Builder
	WriteNode(&sb, n)
	return sb.String()
}

// stickyWriter adapts an io.Writer for WriteXML, keeping its first error.
type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) WriteString(v string) (int, error) {
	if s.err == nil {
		_, s.err = io.WriteString(s.w, v)
	}
	return len(v), s.err
}

// WriteNode streams the XML of the subtree rooted at n into w, as WriteXML
// does; w keeps its own write error. An attribute writes as name="value".
// The rows are read in document order: open is the innermost element whose
// end tag is still due, written when the scan reaches the element's subtree
// end, and its parent rank leads to the next.
func WriteNode(w io.StringWriter, n *Node) {
	t := n.table()
	if n.kind == KindAttribute {
		writeAttr(w, t, n, t.tags[n.name].attr[1:])
		return
	}
	nodes := t.nodes
	var open *Node
	for i := n.pre; ; i++ {
		for open != nil && open.end == i {
			w.WriteString(t.tags[open.name].close)
			if open == n || nodes[open.parent].kind != KindElement {
				open = nil
			} else {
				open = &nodes[open.parent]
			}
		}
		if i == n.end {
			return
		}
		switch c := &nodes[i]; c.kind {
		case KindText:
			writeData(w, c, t.text[c.off:c.lim], &textRefs)
		case KindElement:
			tag := t.tags[c.name].open
			if i+1 < c.end && nodes[i+1].kind != KindAttribute {
				w.WriteString(tag)
				open = c
				continue
			}
			w.WriteString(tag[:len(tag)-1])
			for i+1 < c.end && nodes[i+1].kind == KindAttribute {
				i++
				a := &nodes[i]
				writeAttr(w, t, a, t.tags[a.name].attr)
			}
			if i+1 == c.end {
				w.WriteString("/>")
			} else {
				w.WriteString(">")
				open = c
			}
		}
	}
}

// writeAttr writes an attribute row: prefix (` name="`), the escaped value
// and the closing quote.
func writeAttr(w io.StringWriter, t *table, a *Node, prefix string) {
	w.WriteString(prefix)
	writeData(w, a, t.attr[a.off:a.lim], &attrRefs)
	w.WriteString(`"`)
}

// writeData writes row n's slab range s: as it is when Done marked the row
// clean, escaped under refs otherwise.
func writeData(w io.StringWriter, n *Node, s string, refs *[256]string) {
	if n.atag&rowClean != 0 {
		w.WriteString(s)
	} else {
		writeEscaped(w, s, refs)
	}
}

// WriteStringValue writes n's string value into w escaped for element
// content, as EscapeText(n.StringValue()) would read; w keeps its own write
// error. A clean row's value is written as it is.
func WriteStringValue(w io.StringWriter, n *Node) {
	t := n.table()
	s := t.text
	if n.kind == KindAttribute {
		s = t.attr
	}
	writeData(w, n, s[n.off:n.lim], &textRefs)
}
