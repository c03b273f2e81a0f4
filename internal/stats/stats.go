// Package stats implements the document analyzer: one pre-order walk over a
// loaded document (Walk) numbers its absolute paths and measures per-path
// statistics — element counts per root-to-node path, distinct-value counts
// and min/max for leaf text, average fanout, and document-order extents.
// The engine computes them at load time and stores them on its
// copy-on-write snapshot, the cost model consumes them instead of its
// hard-coded selectivity defaults, and internal/index builds its structural
// and value indexes from the same walk's path table (or from the table
// alone, beside statistics a store file carries).
//
// Paths are absolute, slash-separated root-to-node names: "/bib/book" for an
// element, "/bib/book/@year" for an attribute. Every node of a document has
// exactly one such path, so a path expression selects a set of paths
// (xpath.Path.Selects) whose counts add up — the property the path-aware
// cardinality estimates rely on. Statistics are estimates: internal/index
// resolves a query against the paths its own walk numbered, so statistics
// that disagree with the document (a persisted record may say anything)
// can change a plan's price but never its answer.
package stats

import (
	"sort"

	"nalquery/internal/dom"
	"nalquery/internal/xpath"
)

// PathStats is the measured profile of one absolute path.
type PathStats struct {
	// Path is the absolute root-to-node path ("/bib/book", "/bib/book/@year").
	Path string
	// Count is the number of nodes at this path.
	Count int64
	// AvgFanout is the average number of element children per node
	// (always 0 for attribute paths).
	AvgFanout float64
	// FirstOrder and LastOrder are the document-order extent of the path's
	// nodes (ranks of the first and last occurrence).
	FirstOrder, LastOrder int
	// Simple reports that every node at this path has leaf content only
	// (no element children; attribute paths are always simple). Only simple
	// paths carry the value statistics below and are value-indexable.
	Simple bool
	// Distinct is the number of distinct string values among the path's
	// nodes (0 unless Simple).
	Distinct int64
	// Min and Max are the lexicographically smallest and largest string
	// values (empty unless Simple and Count > 0).
	Min, Max string
	// AllNumeric reports that every value parses as a number; MinNum and
	// MaxNum are then the numeric extremes.
	AllNumeric     bool
	MinNum, MaxNum float64
}

// DocStats is the measured profile of one document.
type DocStats struct {
	// URI is the document's registered URI.
	URI string
	// Elements is the total element count of the document.
	Elements int64
	// Paths holds one entry per distinct absolute path, sorted by path.
	Paths []*PathStats

	byPath map[string]*PathStats
}

// Path returns the statistics of one absolute path, or nil.
func (s *DocStats) Path(p string) *PathStats { return s.byPath[p] }

// FromPaths reconstructs a DocStats from persisted per-path entries (the
// store's NALB2 record). Paths are re-sorted and the lookup map rebuilt.
func FromPaths(uri string, elements int64, paths []*PathStats) *DocStats {
	s := &DocStats{URI: uri, Elements: elements, Paths: paths,
		byPath: make(map[string]*PathStats, len(paths))}
	for _, p := range s.Paths {
		s.byPath[p.Path] = p
	}
	s.sortPaths()
	return s
}

// sortPaths puts Paths in path order.
func (s *DocStats) sortPaths() {
	sort.Slice(s.Paths, func(i, j int) bool { return s.Paths[i].Path < s.Paths[j].Path })
}

// PathTable is one walk's numbering of a document's absolute paths: each path
// string is built once, from its parent's path and its last step, however
// many nodes share it.
type PathTable struct {
	// Path holds each path by id; id 0 is the document node's empty path.
	Path []string
	// Of holds each node's path id by rank: an element's or attribute's
	// path, 0 for the document node and text nodes.
	Of []int32

	ids map[uint64]int32 // by parent id, step name id and kind
}

// step numbers the path of n, an element or attribute, under path parent
// and records it as n's.
func (t *PathTable) step(parent int32, n *dom.Node) int32 {
	attr := n.Kind() == dom.KindAttribute
	k := uint64(parent)<<33 | uint64(n.NameID())<<1
	if attr {
		k |= 1
	}
	id, ok := t.ids[k]
	if !ok {
		sep := "/"
		if attr {
			sep = "/@"
		}
		id = int32(len(t.Path))
		t.Path = append(t.Path, t.Path[parent]+sep+n.Name())
		t.ids[k] = id
	}
	t.Of[n.Order()] = id
	return id
}

// Analyze walks a document once and measures its per-path statistics.
func Analyze(d *dom.Document) *DocStats {
	_, s := Walk(d, true)
	return s
}

// Walk is the analyzer's one pre-order walk: it numbers the document's
// absolute paths and, when measure is set, measures each path's
// statistics (nil otherwise — persisted statistics make re-measuring
// redundant). internal/index builds its rank lists from the numbering.
//
// The walk is one scan of the document's ranks: the stack holds the open
// elements' subtree ends and path ids, so nesting depth costs slice
// entries, not call frames.
func Walk(d *dom.Document, measure bool) (*PathTable, *DocStats) {
	t := &PathTable{Path: []string{""}, Of: make([]int32, d.NumNodes()), ids: map[uint64]int32{}}
	var m *measurer
	if measure {
		m = &measurer{s: &DocStats{URI: d.URI, byPath: map[string]*PathStats{}}, paths: t}
	}
	type open struct {
		end int
		id  int32
	}
	stack := []open{{end: d.NumNodes()}}
	for i := 1; i < d.NumNodes(); i++ {
		c := d.Node(i)
		if c.Kind() != dom.KindElement {
			continue
		}
		for i >= stack[len(stack)-1].end {
			stack = stack[:len(stack)-1]
		}
		id := t.step(stack[len(stack)-1].id, c)
		stack = append(stack, open{end: c.End(), id: id})
		for at := c.FirstAttr(); at != nil; at = at.NextSibling() {
			t.step(id, at)
		}
		if m != nil {
			m.elem(id, c)
		}
	}
	if m == nil {
		return t, nil
	}
	return t, m.done()
}

// measurer accumulates the statistics of one walk, by path id.
type measurer struct {
	s     *DocStats
	paths *PathTable
	accs  []*pathAcc
}

// pathAcc is the per-path accumulator of one walk.
type pathAcc struct {
	st       *PathStats
	fanout   int64
	notLeaf  bool
	values   map[string]struct{}
	numeric  bool
	sawValue bool
}

// acc counts node n at path id and returns the path's accumulator.
func (m *measurer) acc(id int32, n *dom.Node) *pathAcc {
	for int(id) >= len(m.accs) {
		m.accs = append(m.accs, nil)
	}
	a := m.accs[id]
	if a == nil {
		path := m.paths.Path[id]
		a = &pathAcc{st: &PathStats{Path: path, FirstOrder: n.Order()}, numeric: true}
		m.accs[id] = a
		m.s.byPath[path] = a.st
		m.s.Paths = append(m.s.Paths, a.st)
	}
	a.st.Count++
	a.st.LastOrder = n.Order()
	return a
}

// elem measures element c at path id and its attributes: counts, the
// element's fanout, and leaf text.
func (m *measurer) elem(id int32, c *dom.Node) {
	m.s.Elements++
	a := m.acc(id, c)
	for at := c.FirstAttr(); at != nil; at = at.NextSibling() {
		m.acc(m.paths.Of[at.Order()], at).value(at.Data())
	}
	elemKids := int64(0)
	for cc := c.FirstChild(); cc != nil; cc = cc.NextSibling() {
		if cc.Kind() == dom.KindElement {
			elemKids++
		}
	}
	a.fanout += elemKids
	if elemKids > 0 {
		a.notLeaf = true
	} else {
		a.value(c.StringValue())
	}
}

// done finishes every path's statistics and returns the document's.
func (m *measurer) done() *DocStats {
	for _, a := range m.accs {
		if a == nil {
			continue
		}
		if a.st.Count > 0 {
			a.st.AvgFanout = float64(a.fanout) / float64(a.st.Count)
		}
		a.st.Simple = !a.notLeaf
		if a.st.Simple && a.sawValue {
			a.st.Distinct = int64(len(a.values))
			a.st.AllNumeric = a.numeric
		} else {
			// Mixed structural/leaf occurrences: drop the value layer — a
			// value predicate over this path cannot be answered from leaf
			// text alone.
			a.st.Distinct, a.st.Min, a.st.Max = 0, "", ""
			a.st.AllNumeric, a.st.MinNum, a.st.MaxNum = false, 0, 0
		}
	}
	m.s.sortPaths()
	return m.s
}

// value folds one leaf string value into the accumulator.
func (a *pathAcc) value(val string) {
	if a.values == nil {
		a.values = map[string]struct{}{}
	}
	a.values[val] = struct{}{}
	if !a.sawValue || val < a.st.Min {
		a.st.Min = val
	}
	if !a.sawValue || val > a.st.Max {
		a.st.Max = val
	}
	if a.numeric {
		if f, ok := dom.ParseNumber(val); ok {
			if !a.sawValue || f < a.st.MinNum {
				a.st.MinNum = f
			}
			if !a.sawValue || f > a.st.MaxNum {
				a.st.MaxNum = f
			}
		} else {
			a.numeric = false
			a.st.MinNum, a.st.MaxNum = 0, 0
		}
	}
	a.sawValue = true
}

// SuffixCount sums the counts of measured paths the expression reaches from
// any context depth (xpath.Path.SelectsBelow) — the path-aware cardinality
// the cost model uses for unnest-maps over relative paths. ok is false on
// positional predicates.
func (s *DocStats) SuffixCount(p xpath.Path) (float64, bool) {
	if p.Positional() {
		return 0, false
	}
	var n float64
	for _, ps := range s.Paths {
		if p.SelectsBelow(ps.Path) {
			n += float64(ps.Count)
		}
	}
	return n, true
}
