// Package dom implements the ordered XML data model used as the storage
// substrate of the reproduction. It corresponds to the role the Natix store
// plays in the paper: documents are trees of nodes, every node has a stable
// document-order rank, and algebra operators reference nodes through
// lightweight handles (*Node pointers).
//
// A document is one pre-order table: a single []Node slab whose row i is the
// node of document-order rank i (an element, then its attributes, then its
// children), two string slabs (descendant text in document order in one,
// attribute values in the other) and one name table. A row stores its kind,
// interned name id, own rank, parent rank, the rank one past its subtree and
// a byte range into a slab, so child::x is sibling hops through the subtree
// end, descendant::x is a linear scan of the subtree's rows comparing name
// ids, and the string value of any element is one contiguous substring of
// the text slab — nothing is concatenated. One thing is derived: a row's
// atom word, in what would be the row's padding, holds its string value read
// under the number rule — the number it reads as, or the text's hash — when
// that value is at most AtomCutoff bytes (atom.go), so comparing, grouping
// and joining on a node reads its atom instead of parsing and hashing the
// text again.
//
// What is and is not pointer-free: all of it but one word a document. The
// two string slabs hold no pointer, and neither does a row: the row slab is
// one object that starts with a header word, the *table, and the rows follow
// it (rows.go), so the collector scans one word of it however many rows it
// holds, and after Done a document owns no per-node heap object. The node
// handle stays a *Node — a pointer into the slab — and a row finds its table
// by stepping back from itself to the header by its own rank. value.Value is
// an interface, so a one-word handle converts for free while a (document,
// int32) pair would allocate on every conversion; and pointer identity
// remains node identity.
//
// The model is deliberately small: documents, elements, attributes and text.
// This is everything the XQuery use-case documents of the paper require.
package dom

import (
	"cmp"
	"fmt"
	"strings"
)

// Kind identifies the node kind.
type Kind uint8

// Node kinds.
const (
	KindDocument Kind = iota
	KindElement
	KindAttribute
	KindText
)

// String returns the XPath-style name of the node kind.
func (k Kind) String() string {
	switch k {
	case KindDocument:
		return "document"
	case KindElement:
		return "element"
	case KindAttribute:
		return "attribute"
	case KindText:
		return "text"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Node is one row of a document's pre-order table; a *Node into that table
// is the node handle. Rows are written by a Builder and immutable after
// Done; algebra evaluation never mutates documents. A row is 32 bytes and
// holds no pointer: six int32 ranks, offsets and the name id, the kind, and
// the atom word (a tag byte and a uint32) that Done fills. A row finds its
// document through the header word before row 0 of its slab (rows.go), so
// a row is only ever used in place: a Node copied out of its slab has no
// header, and no API hands one out by value.
type Node struct {
	// pre is the row's own index, which is the node's document-order rank:
	// unique within a document and monotone in a pre-order traversal
	// (attributes rank after their owner element and before its children,
	// matching the XPath data model closely enough for the paper's queries).
	pre    int32
	parent int32 // -1 for the document node
	end    int32 // one past the last row of the subtree (attributes included)

	// [off, lim) is the node's string value: a range of the attribute slab
	// for attributes, of the text slab for everything else.
	off, lim int32

	name int32 // index into the name table; 0 (the empty name) for text and document
	kind Kind

	// The atom word: the string value's atom, read once by Done (Atom,
	// atom.go). It fills what would be the row's padding, so a row stays 32
	// bytes.
	atag  byte
	aword uint32
}

// table is the storage of one document. The header of the row slab points
// here rather than at the Document, so a Document is reachable from nothing
// it owns. nodes is the slab's rows; its capacity is the slab's size class
// (rowClass), whose rows past the last node stay zero.
type table struct {
	uri   string
	nodes []Node
	text  string
	attr  string
	names []string
	ids   map[string]int32
	nums  []float64 // the numbers no atom word holds inline (atomBoxed)
}

// anyName is the name id the empty (wildcard) name test resolves to.
const anyName = -1

// nameID resolves a name test: anyName for the empty name, and an id no row
// carries for a name the document does not use.
func (t *table) nameID(name string) int32 {
	if name == "" {
		return anyName
	}
	if id, ok := t.ids[name]; ok {
		return id
	}
	return int32(len(t.names))
}

// Document is a parsed or generated XML document.
type Document struct {
	// URI is the name the document was registered under (e.g. "bib.xml").
	URI string
	// Root is the document node; its single element child is the root element.
	Root *Node
}

// NumNodes reports how many nodes the document contains (including the
// document node itself).
func (d *Document) NumNodes() int { return len(d.Root.table().nodes) }

// Node returns the node of document-order rank i, 0 ≤ i < NumNodes().
func (d *Document) Node(i int) *Node { return &d.Root.table().nodes[i] }

// RootElement returns the root element of the document, or nil if the
// document is empty.
func (d *Document) RootElement() *Node { return d.Root.FirstChildElement("") }

// Kind returns the node kind.
func (n *Node) Kind() Kind { return n.kind }

// Name returns the element or attribute name; empty for text and document.
func (n *Node) Name() string { return n.table().names[n.name] }

// NameID returns the document-local number of the node's name: two nodes of
// one document have the same name exactly when they have the same NameID.
// Text and document nodes have the empty name's, 0.
func (n *Node) NameID() int { return int(n.name) }

// Data returns the text content or attribute value; empty for elements and
// documents.
func (n *Node) Data() string {
	switch n.kind {
	case KindText:
		return n.table().text[n.off:n.lim]
	case KindAttribute:
		return n.table().attr[n.off:n.lim]
	default:
		return ""
	}
}

// Order returns the document-order rank of the node.
func (n *Node) Order() int { return int(n.pre) }

// End returns the rank one past the node's subtree: the ranks of the node,
// its attributes and its descendants are exactly [Order(), End()).
func (n *Node) End() int { return int(n.end) }

// Parent returns the parent node (the owner element for an attribute), or
// nil for the document node.
func (n *Node) Parent() *Node {
	if n.parent < 0 {
		return nil
	}
	return &n.table().nodes[n.parent]
}

// FirstAttr returns the first attribute of an element, or nil.
func (n *Node) FirstAttr() *Node {
	if i := n.pre + 1; i < n.end {
		if a := &n.table().nodes[i]; a.kind == KindAttribute {
			return a
		}
	}
	return nil
}

// FirstChild returns the first element or text child, or nil.
func (n *Node) FirstChild() *Node {
	nodes := n.table().nodes
	i := n.pre + 1
	for i < n.end && nodes[i].kind == KindAttribute {
		i++
	}
	if i < n.end {
		return &nodes[i]
	}
	return nil
}

// NextSibling returns the next child of the node's parent — for an
// attribute, the owner's next attribute — or nil.
func (n *Node) NextSibling() *Node {
	if n.parent < 0 {
		return nil
	}
	nodes := n.table().nodes
	if n.end >= nodes[n.parent].end {
		return nil
	}
	s := &nodes[n.end]
	if n.kind == KindAttribute && s.kind != KindAttribute {
		return nil
	}
	return s
}

// StringValue returns the string value of a node following the XPath data
// model: the concatenation of all descendant text for documents and elements,
// the value for attributes and text nodes.
func (n *Node) StringValue() string {
	if n.kind == KindAttribute {
		return n.table().attr[n.off:n.lim]
	}
	return n.table().text[n.off:n.lim]
}

// Attr returns the attribute node with the given name, or nil.
func (n *Node) Attr(name string) *Node {
	t := NameTest{Name: name}
	return t.Attr(n)
}

// AppendAttrs appends the node's attributes, in declaration order, to dst.
func (n *Node) AppendAttrs(dst []*Node) []*Node {
	for a := n.FirstAttr(); a != nil; a = a.NextSibling() {
		dst = append(dst, a)
	}
	return dst
}

// AppendChildElements appends to dst the element children with the given
// name, in document order. The empty name matches every element child.
func (n *Node) AppendChildElements(name string, dst []*Node) []*Node {
	t := NameTest{Name: name}
	return t.AppendChildren(n, dst)
}

// ChildElements returns the element children with the given name in document
// order. The empty name matches every element child.
func (n *Node) ChildElements(name string) []*Node {
	return n.AppendChildElements(name, nil)
}

// FirstChildElement returns the first element child with the given name, or
// nil if there is none.
func (n *Node) FirstChildElement(name string) *Node {
	t := NameTest{Name: name}
	id := t.resolve(n)
	for c := n.FirstChild(); c != nil; c = c.NextSibling() {
		if c.kind == KindElement && (id == anyName || c.name == id) {
			return c
		}
	}
	return nil
}

// Descendants appends to dst all descendant elements (not including n) with
// the given name, in document order, and returns the extended slice. The
// empty name matches every element.
func (n *Node) Descendants(name string, dst []*Node) []*Node {
	t := NameTest{Name: name}
	return t.AppendDescendants(n, dst)
}

// NameTest is a name test resolved against the name table of the document
// it was last applied in: applied to a node of that document again, it
// compares name ids only, and applied to a node of another document, it
// looks its name up once. A caller that applies one step per context node
// keeps one NameTest per step. A NameTest belongs to one goroutine.
type NameTest struct {
	Name string // the empty name matches every element
	tab  *table // the table id was resolved against; nil before the first use
	id   int32
}

// resolve returns the test's name id in n's document (see table.nameID).
func (t *NameTest) resolve(n *Node) int32 {
	if tab := n.table(); t.tab != tab {
		t.tab, t.id = tab, tab.nameID(t.Name)
	}
	return t.id
}

// AppendChildren appends to dst n's element children that pass the test, in
// document order.
func (t *NameTest) AppendChildren(n *Node, dst []*Node) []*Node {
	id := t.resolve(n)
	for c := n.FirstChild(); c != nil; c = c.NextSibling() {
		if c.kind == KindElement && (id == anyName || c.name == id) {
			dst = append(dst, c)
		}
	}
	return dst
}

// AppendDescendants appends to dst n's descendant elements (not n) that pass
// the test, in document order.
func (t *NameTest) AppendDescendants(n *Node, dst []*Node) []*Node {
	id := t.resolve(n)
	sub := n.table().nodes[n.pre+1 : n.end]
	for i := range sub {
		if c := &sub[i]; c.kind == KindElement && (id == anyName || c.name == id) {
			dst = append(dst, c)
		}
	}
	return dst
}

// Attr returns n's attribute of the test's name, or nil; the empty name
// names no attribute.
func (t *NameTest) Attr(n *Node) *Node {
	id := t.resolve(n)
	for a := n.FirstAttr(); a != nil; a = a.NextSibling() {
		if a.name == id {
			return a
		}
	}
	return nil
}

// CompareOrder compares two nodes by document order. Nodes from different
// documents are ordered by document URI (an arbitrary but stable global
// order).
func CompareOrder(a, b *Node) int {
	if ta, tb := a.table(), b.table(); ta != tb {
		return strings.Compare(ta.uri, tb.uri)
	}
	return cmp.Compare(a.pre, b.pre)
}
