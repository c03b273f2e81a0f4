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
	"nalquery/internal/value"
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

	// ranks holds every element's and attribute's rank, grouped by path id
	// and ascending within a path: path id i's window is
	// ranks[starts[i]:starts[i+1]].
	ranks, starts []int32
	ids           map[uint64]int32 // by parent id, step name id and kind
}

// Ranks returns the document-order ranks of the nodes at path id: a window
// of one array all paths share, capped so that appending to it copies.
// Id 0, the document node's path, has none.
func (t *PathTable) Ranks(id int32) []int32 {
	lo, hi := t.starts[id], t.starts[id+1]
	return t.ranks[lo:hi:hi]
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

// window fills ranks and starts from Of: each path's count, then its end,
// then its ranks back to front, each end stepping down to the path's start,
// so every window is ascending.
func (t *PathTable) window() {
	t.starts = make([]int32, len(t.Path)+1)
	for _, id := range t.Of {
		if id != 0 {
			t.starts[id]++
		}
	}
	for i := 1; i < len(t.starts); i++ {
		t.starts[i] += t.starts[i-1]
	}
	t.ranks = make([]int32, t.starts[len(t.Path)])
	for r := len(t.Of) - 1; r >= 0; r-- {
		if id := t.Of[r]; id != 0 {
			t.starts[id]--
			t.ranks[t.starts[id]] = int32(r)
		}
	}
}

// Analyze walks a document once and measures its per-path statistics.
func Analyze(d *dom.Document) *DocStats {
	_, s := Walk(d, true)
	return s
}

// Walk is the analyzer's one pre-order walk: it numbers the document's
// absolute paths, lays out each path's ranks (PathTable.Ranks) and, when
// measure is set, measures each path's statistics (nil otherwise —
// persisted statistics make re-measuring redundant). internal/index builds
// its structural and value indexes on the rank windows.
//
// The walk is one scan of the document's ranks: the stack holds the open
// elements' subtree ends and path ids, so nesting depth costs slice
// entries, not call frames. Per node it only numbers and counts: an
// element adds one to its parent path's element children. The values of
// the simple paths are then read in one pass per path over its window
// (measureValues).
func Walk(d *dom.Document, measure bool) (*PathTable, *DocStats) {
	t := &PathTable{Path: []string{""}, Of: make([]int32, d.NumNodes()), ids: map[uint64]int32{}}
	var kids []int64 // element children per path id, while measuring
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
		parent := stack[len(stack)-1].id
		id := t.step(parent, c)
		stack = append(stack, open{end: c.End(), id: id})
		for at := c.FirstAttr(); at != nil; at = at.NextSibling() {
			t.step(id, at)
		}
		if measure && parent != 0 {
			for int(parent) >= len(kids) {
				kids = append(kids, 0)
			}
			kids[parent]++
		}
	}
	t.window()
	if !measure {
		return t, nil
	}
	return t, t.measure(d, kids)
}

// measure builds the statistics of every path from its rank window and its
// element-children count (kids, by path id; missing ids have none): one
// PathStats array for all paths, and one key table, sized for the largest
// simple path, for every value pass.
func (t *PathTable) measure(d *dom.Document, kids []int64) *DocStats {
	n := len(t.Path) - 1
	all := make([]PathStats, n)
	s := &DocStats{URI: d.URI, Paths: make([]*PathStats, n), byPath: make(map[string]*PathStats, n)}
	largest := 0
	for id := 1; id < len(t.Path); id++ {
		ranks := t.Ranks(int32(id))
		var fanout int64
		if id < len(kids) {
			fanout = kids[id]
		}
		p := &all[id-1]
		*p = PathStats{Path: t.Path[id], Count: int64(len(ranks)),
			AvgFanout:  float64(fanout) / float64(len(ranks)),
			FirstOrder: int(ranks[0]), LastOrder: int(ranks[len(ranks)-1]), Simple: fanout == 0}
		if d.Node(int(ranks[0])).Kind() == dom.KindElement {
			s.Elements += p.Count
		}
		if p.Simple {
			largest = max(largest, len(ranks))
		}
		s.Paths[id-1] = p
		s.byPath[p.Path] = p
	}
	var keys value.KeyTable
	keys.Reset(largest)
	for id, p := range s.Paths {
		if p.Simple {
			p.measureValues(d, t.Ranks(int32(id+1)), &keys)
		}
	}
	s.sortPaths()
	return s
}

// measureValues is the value pass of a simple path over its ranks: the
// distinct strings, the string extremes and, while every value reads as a
// number, the numeric ones — in document order, with no allocation per
// value. A row's atom word (dom.Node.Atom) says whether its string value is
// a number and which; only a value longer than dom.AtomCutoff is parsed
// again. Distinct strings are numbered in keys under the seeded key hash of
// their text — for a text row the hash its atom word holds — and confirmed
// by string equality, so "1995" and "1995.0" count twice and no hash decides
// a count.
func (p *PathStats) measureValues(d *dom.Document, ranks []int32, keys *value.KeyTable) {
	keys.Reset(len(ranks))
	seed := value.KeySeed()
	p.AllNumeric = true
	for i, r := range ranks {
		n := d.Node(int(r))
		s := n.StringValue()
		num, h, isNum, known := n.Atom()
		if isNum || !known {
			h = dom.TextHash(s)
		}
		if _, added := keys.Insert(value.TextKeyHash(h, seed), int32(i), func(first int32) bool {
			return d.Node(int(ranks[first])).StringValue() == s
		}); added {
			p.Distinct++
		}
		if i == 0 || s < p.Min {
			p.Min = s
		}
		if i == 0 || s > p.Max {
			p.Max = s
		}
		if !p.AllNumeric {
			continue
		}
		if !known {
			num, isNum = dom.ParseNumber(s)
		}
		switch {
		case !isNum:
			p.AllNumeric, p.MinNum, p.MaxNum = false, 0, 0
		case i == 0:
			p.MinNum, p.MaxNum = num, num
		default:
			if num < p.MinNum {
				p.MinNum = num
			}
			if num > p.MaxNum {
				p.MaxNum = num
			}
		}
	}
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
