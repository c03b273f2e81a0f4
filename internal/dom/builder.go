package dom

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Rows and slab bytes accumulate in fixed-size chunks and are copied once,
// in Done, into the document's slabs: growing one big slice by append
// would copy it about five times over (large slices grow by 1.25×), and no
// feeder knows the node count up front — the scanner knows its input's
// length, the store decoder and the generators not even that.
const (
	rowChunk  = 1024
	slabChunk = 16 << 10
)

// ErrTooLarge is the Builder's error for a document whose node count or
// slab bytes do not fit the table's int32 ranks and offsets.
var ErrTooLarge = errors.New("dom: document too large for int32 ranks and offsets")

// Builder constructs documents programmatically through a well-nested
// stream of Begin/Attrib/Text/End calls. It is used by the XML parser, the
// binary store's decoder, the synthetic document generators and tests. No
// node handle exists before Done.
type Builder struct {
	tab        *table
	rows       [][]Node
	n          int32
	text, attr slab
	open       []int32 // ranks of the open nodes; open[0] is the document node
	attribOK   bool    // the last row is the open element or one of its attributes
	limit      int     // math.MaxInt32; lower only in this package's tests
	err        error
}

// slab accumulates string bytes in chunks.
type slab struct {
	chunks [][]byte
	size   int
}

func appendSlab[T string | []byte](s *slab, p T) {
	s.size += len(p)
	for len(p) > 0 {
		if k := len(s.chunks); k == 0 || len(s.chunks[k-1]) == cap(s.chunks[k-1]) {
			s.chunks = append(s.chunks, make([]byte, 0, slabChunk))
		}
		last := &s.chunks[len(s.chunks)-1]
		k := copy((*last)[len(*last):cap(*last)], p)
		*last = (*last)[:len(*last)+k]
		p = p[k:]
	}
}

func (s *slab) String() string {
	var sb strings.Builder
	sb.Grow(s.size)
	for _, c := range s.chunks {
		sb.Write(c)
	}
	return sb.String()
}

// NewBuilder starts a new document with the given URI.
func NewBuilder(uri string) *Builder {
	b := &Builder{
		tab:   &table{uri: uri, names: []string{""}, ids: map[string]int32{"": 0}},
		limit: math.MaxInt32,
	}
	b.open = append(b.open, b.row(KindDocument, 0, 0))
	return b
}

// Err reports ErrTooLarge once the document has outgrown the table; the
// builder ignores every call after that. Loaders check it before Done.
func (b *Builder) Err() error { return b.err }

// at returns row i of the chunked, still growing table.
func (b *Builder) at(i int32) *Node { return &b.rows[i/rowChunk][i%rowChunk] }

// row appends a row under the innermost open node and returns its rank.
func (b *Builder) row(kind Kind, name int32, off int) int32 {
	if int(b.n)%rowChunk == 0 {
		b.rows = append(b.rows, make([]Node, 0, rowChunk))
	}
	parent := int32(-1)
	if len(b.open) > 0 {
		parent = b.open[len(b.open)-1]
	}
	i := b.n
	last := &b.rows[len(b.rows)-1]
	*last = append(*last, Node{kind: kind, name: name, pre: i, parent: parent,
		end: i + 1, off: int32(off), lim: int32(off)})
	b.n++
	return i
}

// fits reports whether one more row and n more bytes of s fit the table.
func (b *Builder) fits(s *slab, n int) bool {
	if b.err == nil && (int(b.n) >= b.limit || n > b.limit-s.size) {
		b.err = ErrTooLarge
	}
	return b.err == nil
}

func (b *Builder) intern(name string) int32 {
	id, ok := b.tab.ids[name]
	if !ok {
		id = int32(len(b.tab.names))
		name = strings.Clone(name)
		b.tab.names = append(b.tab.names, name)
		b.tab.ids[name] = id
	}
	return id
}

// Begin opens a new element under the current node.
func (b *Builder) Begin(name string) *Builder {
	if b.fits(&b.text, 0) {
		b.open = append(b.open, b.row(KindElement, b.intern(name), b.text.size))
		b.attribOK = true
	}
	return b
}

// Attrib adds an attribute to the currently open element. Attributes rank
// between their owner and its first child, so they come before any child.
func (b *Builder) Attrib(name, value string) *Builder {
	return addAttrib(b, name, value)
}

// AttribBytes is Attrib for a value held in a byte buffer the caller reuses.
func (b *Builder) AttribBytes(name string, value []byte) *Builder {
	return addAttrib(b, name, value)
}

func addAttrib[T string | []byte](b *Builder, name string, value T) *Builder {
	if b.err != nil {
		return b
	}
	if len(b.open) == 1 {
		//nal:allow-panic builder misuse is a programmer error; the store/parse decoders emit Begin before Attrib by construction and error out before reaching an unbalanced state
		panic("dom: Attrib outside of element")
	}
	if !b.attribOK {
		//nal:allow-panic builder misuse is a programmer error; the store/parse decoders emit an element's attributes straight after its Begin by construction (the record and token formats carry them in the start tag)
		panic("dom: Attrib after a child of the element")
	}
	if !b.fits(&b.attr, len(value)) {
		return b
	}
	a := b.at(b.row(KindAttribute, b.intern(name), b.attr.size))
	appendSlab(&b.attr, value)
	a.lim = int32(b.attr.size)
	return b
}

// Text adds a text node under the current node.
func (b *Builder) Text(data string) *Builder { return addText(b, data) }

// TextBytes is Text for data held in a byte buffer the caller reuses.
func (b *Builder) TextBytes(data []byte) *Builder { return addText(b, data) }

func addText[T string | []byte](b *Builder, data T) *Builder {
	if b.fits(&b.text, len(data)) {
		t := b.at(b.row(KindText, 0, b.text.size))
		appendSlab(&b.text, data)
		t.lim = int32(b.text.size)
		b.attribOK = false
	}
	return b
}

// End closes the current element.
func (b *Builder) End() *Builder {
	if b.err != nil {
		return b
	}
	if len(b.open) == 1 {
		//nal:allow-panic builder misuse is a programmer error; decoders keep Begin/End balanced by construction
		panic("dom: End without matching Begin")
	}
	b.close()
	b.attribOK = false
	return b
}

// close pops the innermost open node, fixing its subtree end and text range.
func (b *Builder) close() {
	e := b.at(b.open[len(b.open)-1])
	e.end, e.lim = b.n, int32(b.text.size)
	b.open = b.open[:len(b.open)-1]
}

// Element is shorthand for Begin(name).Text(text).End().
func (b *Builder) Element(name, text string) *Builder {
	return b.Begin(name).Text(text).End()
}

// Done finalizes the document: it copies the rows into the document's row
// slab (rows.go) and the string bytes into exact-size slabs, fixes every
// row's atom word and returns the document. The builder must be balanced
// (every Begin matched by an End) and must not have failed (see Err).
func (b *Builder) Done() *Document {
	if b.err != nil {
		//nal:allow-panic builder misuse is a programmer error; Parse and the store decoder return Err before calling Done, and the generators' sizes are authored
		panic(b.err)
	}
	if len(b.open) != 1 {
		//nal:allow-panic builder misuse is a programmer error; load paths check decoder errors before calling Done
		panic(fmt.Sprintf("dom: Done with %d unclosed elements", len(b.open)-1))
	}
	b.close()
	t := b.tab
	t.nodes = newRows(t, int(b.n))
	k := 0
	for _, c := range b.rows {
		k += copy(t.nodes[k:], c)
	}
	t.text, t.attr = b.text.String(), b.attr.String()
	t.fixAtoms()
	*b = Builder{} // spent: drops the chunks, and a stray later call cannot reach the finished table
	return &Document{URI: t.uri, Root: &t.nodes[0]}
}
