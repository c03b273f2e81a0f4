// Package store implements binary persistence for documents — the stand-in
// for the paper's Natix store. Documents serialize into a compact pre-order
// record format that loads without re-parsing XML; document-order ranks are
// rebuilt on load.
//
// Format (all integers unsigned varints, strings length-prefixed):
//
//	magic "NALB1\n"
//	uri
//	node := kind name data nattrs attrs... nchildren children...
//
// Version 2 ("NALB2\n") appends the analyzer's measured statistics after the
// node tree, so a load skips the analysis walk:
//
//	elements npaths
//	path := name count fanoutBits firstOrder lastOrder flags
//	        [distinct min max [minBits maxBits]]
//
// flags bit 0 is Simple (the value block follows), bit 1 is AllNumeric (the
// numeric extremes follow). Floats serialize as IEEE-754 bits. LoadStats
// accepts both versions — a version-1 file simply carries no statistics and
// the engine recomputes them. Unknown magics are rejected.
//
// LoadStats is a trust boundary: every length and count in a file is a
// claim. Strings are read in bounded steps, the path list grows as records
// decode and nesting depth is kept in a slice, so a load allocates a small
// multiple of the bytes actually present and every failure is a "store:"
// error. The statistics are a claim too: the engine prices plans with them
// but resolves queries against the document itself (internal/index).
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"nalquery/internal/dom"
	"nalquery/internal/stats"
)

const (
	magic   = "NALB1\n"
	magicV2 = "NALB2\n"
)

// Stats flag bits.
const (
	flagSimple  = 1 << 0
	flagNumeric = 1 << 1
)

// maxPaths guards against corrupt path counts.
const maxPaths = 1 << 24

// maxString guards against corrupt length prefixes.
const maxString = 1 << 28

// readStep bounds how far a string read allocates ahead of the bytes present.
const readStep = 64 << 10

// SaveStats writes a document in version-2 binary form with the analyzer's
// measured statistics appended, so loading skips the analysis walk. A nil
// st falls back to version 1.
func SaveStats(w io.Writer, d *dom.Document, st *stats.DocStats) error {
	return save(w, d, st)
}

func save(w io.Writer, d *dom.Document, st *stats.DocStats) error {
	bw := bufio.NewWriter(w)
	head := magic
	if st != nil {
		head = magicV2
	}
	if _, err := bw.WriteString(head); err != nil {
		return err
	}
	enc := encoder{w: bw}
	enc.str(d.URI)
	enc.doc(d)
	if st != nil {
		enc.stats(st)
	}
	if enc.err != nil {
		return enc.err
	}
	return bw.Flush()
}

// LoadStats reads a document and, for a version-2 file, the statistics
// persisted with it. Version-1 files return nil statistics: the caller
// recomputes them.
func LoadStats(r io.Reader) (*dom.Document, *stats.DocStats, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, nil, fmt.Errorf("store: reading magic: %w", err)
	}
	v2 := string(head) == magicV2
	if string(head) != magic && !v2 {
		return nil, nil, fmt.Errorf("store: bad magic %q (not a nalquery binary document)", head)
	}
	dec := decoder{r: br, names: map[string]string{}}
	uri := dec.str()
	b := dom.NewBuilder(uri)
	// The root record must be a document node; its children recurse.
	kind := dec.u64()
	if dec.err != nil {
		return nil, nil, dec.err
	}
	if dom.Kind(kind) != dom.KindDocument {
		return nil, nil, fmt.Errorf("store: root record has kind %d, want document", kind)
	}
	dec.str() // name (empty)
	dec.str() // data (empty)
	nattrs := dec.u64()
	if nattrs != 0 {
		return nil, nil, fmt.Errorf("store: document node with attributes")
	}
	dec.children(b, dec.u64())
	if dec.err != nil {
		return nil, nil, dec.err
	}
	var st *stats.DocStats
	if v2 {
		st = dec.stats(uri)
		if dec.err != nil {
			return nil, nil, dec.err
		}
	}
	return b.Done(), st, nil
}

// SaveFileStats persists a document with its measured statistics (version 2;
// nil statistics fall back to version 1).
func SaveFileStats(path string, d *dom.Document, st *stats.DocStats) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f, d, st); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFileStats loads a document and any persisted statistics from a file.
func LoadFileStats(path string) (*dom.Document, *stats.DocStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return LoadStats(f)
}

type encoder struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (e *encoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *encoder) stats(st *stats.DocStats) {
	e.u64(uint64(st.Elements))
	e.u64(uint64(len(st.Paths)))
	for _, p := range st.Paths {
		e.str(p.Path)
		e.u64(uint64(p.Count))
		e.u64(math.Float64bits(p.AvgFanout))
		e.u64(uint64(p.FirstOrder))
		e.u64(uint64(p.LastOrder))
		var flags uint64
		if p.Simple {
			flags |= flagSimple
		}
		if p.AllNumeric {
			flags |= flagNumeric
		}
		e.u64(flags)
		if p.Simple {
			e.u64(uint64(p.Distinct))
			e.str(p.Min)
			e.str(p.Max)
			if p.AllNumeric {
				e.u64(math.Float64bits(p.MinNum))
				e.u64(math.Float64bits(p.MaxNum))
			}
		}
	}
}

// doc writes the node records of d. The format has no end markers — every
// record states its attribute and child counts up front — so pre-order
// records are one scan of the document's ranks.
func (e *encoder) doc(d *dom.Document) {
	for i := 0; i < d.NumNodes() && e.err == nil; i++ {
		n := d.Node(i)
		if n.Kind() == dom.KindAttribute {
			continue // written with its owner
		}
		e.u64(uint64(n.Kind()))
		e.str(n.Name())
		e.str(n.Data())
		nattrs := 0
		for a := n.FirstAttr(); a != nil; a = a.NextSibling() {
			nattrs++
		}
		e.u64(uint64(nattrs))
		for a := n.FirstAttr(); a != nil; a = a.NextSibling() {
			e.str(a.Name())
			e.str(a.Data())
		}
		nchildren := 0
		for c := n.FirstChild(); c != nil; c = c.NextSibling() {
			nchildren++
		}
		e.u64(uint64(nchildren))
	}
}

type decoder struct {
	r     *bufio.Reader
	err   error
	buf   []byte            // the last bytes() result, reused by the next
	names map[string]string // element and attribute names seen so far
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = fmt.Errorf("store: %w", err)
	}
	return v
}

// bytes reads a length-prefixed string into the decoder's scratch buffer;
// the result is valid until the next call. The length prefix is untrusted:
// the buffer grows by at most readStep ahead of the bytes that have actually
// arrived, so a short file with a huge prefix fails on EOF having allocated
// a small multiple of its own size.
func (d *decoder) bytes() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > maxString {
		d.err = fmt.Errorf("store: string length %d exceeds limit", n)
		return nil
	}
	d.buf = d.buf[:0]
	for rem := int(n); rem > 0; {
		have, step := len(d.buf), min(rem, readStep)
		d.buf = slices.Grow(d.buf, step)[:have+step]
		if _, err := io.ReadFull(d.r, d.buf[have:]); err != nil {
			d.err = fmt.Errorf("store: %w", err)
			return nil
		}
		rem -= step
	}
	return d.buf
}

func (d *decoder) str() string { return string(d.bytes()) }

// name reads a string that repeats across records — an element or attribute
// name, or a text node's empty one — and returns the one copy kept of it.
// The first time it reads a name it checks it against the XML Name
// production, as the XML scanner does: a name no XML parse yields (`a/b`,
// `@x`) would make a node's absolute path read as the paths of other nodes.
func (d *decoder) name() string {
	b := d.bytes()
	s, ok := d.names[string(b)]
	if !ok {
		s = string(b)
		if s != "" && !dom.IsName(s) {
			d.err = fmt.Errorf("store: %.40q is not an XML name", s)
			return ""
		}
		d.names[s] = s
	}
	return s
}

func (d *decoder) stats(uri string) *stats.DocStats {
	elements := d.u64()
	npaths := d.u64()
	if d.err != nil {
		return nil
	}
	if npaths > maxPaths {
		d.err = fmt.Errorf("store: path count %d exceeds limit", npaths)
		return nil
	}
	// npaths is untrusted: paths grows as records actually decode.
	var paths []*stats.PathStats
	for i := uint64(0); i < npaths && d.err == nil; i++ {
		p := &stats.PathStats{Path: d.str()}
		p.Count = int64(d.u64())
		p.AvgFanout = math.Float64frombits(d.u64())
		p.FirstOrder = int(d.u64())
		p.LastOrder = int(d.u64())
		flags := d.u64()
		p.Simple = flags&flagSimple != 0
		p.AllNumeric = flags&flagNumeric != 0
		if p.Simple {
			p.Distinct = int64(d.u64())
			p.Min = d.str()
			p.Max = d.str()
			if p.AllNumeric {
				p.MinNum = math.Float64frombits(d.u64())
				p.MaxNum = math.Float64frombits(d.u64())
			}
		}
		paths = append(paths, p)
	}
	if d.err != nil {
		return nil
	}
	return stats.FromPaths(uri, int64(elements), paths)
}

// children decodes the records of n sibling nodes, and of their descendants,
// into the builder. pending holds, per open node, how many of its children
// are still to come, so nesting depth — which a hostile file controls —
// costs slice entries, not call frames.
func (d *decoder) children(b *dom.Builder, n uint64) {
	pending := []uint64{n}
	for d.err == nil {
		top := len(pending) - 1
		if pending[top] == 0 {
			if top == 0 {
				break
			}
			pending = pending[:top]
			b.End()
			continue
		}
		pending[top]--
		kind := dom.Kind(d.u64())
		name := d.name()
		data := d.bytes()
		nattrs := d.u64()
		if d.err != nil {
			return
		}
		switch kind {
		case dom.KindElement:
			if name == "" {
				d.err = fmt.Errorf("store: element without a name")
				return
			}
			b.Begin(name)
			for i := uint64(0); i < nattrs && d.err == nil; i++ {
				an := d.name()
				av := d.bytes()
				if d.err == nil && an == "" {
					d.err = fmt.Errorf("store: attribute without a name")
				}
				if d.err == nil {
					b.AttribBytes(an, av)
				}
			}
			pending = append(pending, d.u64())
		case dom.KindText:
			if nattrs != 0 {
				d.err = fmt.Errorf("store: text node with attributes")
				return
			}
			if d.u64() != 0 { // children
				d.err = fmt.Errorf("store: text node with children")
				return
			}
			b.TextBytes(data)
		default:
			d.err = fmt.Errorf("store: unexpected node kind %d", kind)
		}
	}
	if err := b.Err(); d.err == nil && err != nil {
		d.err = fmt.Errorf("store: %w", err)
	}
}
