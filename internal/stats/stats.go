// Package stats implements the document analyzer: one pre-order walk over a
// loaded document produces per-path measured statistics — element counts per
// root-to-node path, distinct-value counts and min/max for leaf text,
// average fanout, and document-order extents. The engine computes them at
// load time and stores them on its copy-on-write snapshot, the cost model
// consumes them instead of its hard-coded selectivity defaults, and
// internal/index builds its structural and value indexes from the same walk
// (see AnalyzeVisit).
//
// Paths are absolute, slash-separated root-to-node names: "/bib/book" for an
// element, "/bib/book/@year" for an attribute. Every node of a document has
// exactly one such path, so a path expression resolves to a set of measured
// paths (ResolvePaths) whose counts add up — the property the planner's
// index substitution and the path-aware cardinality estimates rely on.
package stats

import (
	"sort"
	"strconv"
	"strings"

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
	// segs[i] is Paths[i].Path split into its segments, once per document:
	// path resolution matches segment-wise per path per call.
	segs [][]string
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

// sortPaths puts Paths in path order and splits each into its segments.
func (s *DocStats) sortPaths() {
	sort.Slice(s.Paths, func(i, j int) bool { return s.Paths[i].Path < s.Paths[j].Path })
	s.segs = make([][]string, len(s.Paths))
	for i, p := range s.Paths {
		s.segs[i] = strings.Split(strings.TrimPrefix(p.Path, "/"), "/")
	}
}

// Visitor observes the analyzer's walk: VisitElem runs once per element and
// VisitAttr once per attribute, in document order, each with the node's
// absolute path. internal/index implements it to build path and value
// indexes from the same single walk that measures the statistics.
type Visitor interface {
	VisitElem(path string, n *dom.Node)
	VisitAttr(path string, n *dom.Node)
}

// Analyze walks a document once and measures its per-path statistics.
func Analyze(d *dom.Document) *DocStats { return AnalyzeVisit(d, nil) }

// Walk runs the analyzer's pre-order path walk with a visitor but without
// measuring: the index builder uses it when persisted statistics (a NALB2
// store record) make re-measuring redundant.
func Walk(d *dom.Document, v Visitor) {
	paths := newPathTable()
	walkElems(d, paths, func(id int32, c *dom.Node) {
		v.VisitElem(paths.path[id], c)
		for at := c.FirstAttr(); at != nil; at = at.NextSibling() {
			v.VisitAttr(paths.path[paths.step(id, at)], at)
		}
	})
}

// pathTable numbers the absolute paths of one walk. A path is built once,
// from its parent's path and its last step, however many nodes share it;
// id 0 is the document node's empty path.
type pathTable struct {
	ids  map[uint64]int32 // by parent id, step name id and kind
	path []string
}

func newPathTable() *pathTable {
	return &pathTable{ids: map[uint64]int32{}, path: []string{""}}
}

// step returns the id of the path of n, an element or attribute, under
// path parent.
func (t *pathTable) step(parent int32, n *dom.Node) int32 {
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
		id = int32(len(t.path))
		t.path = append(t.path, t.path[parent]+sep+n.Name())
		t.ids[k] = id
	}
	return id
}

// walkElems calls fn for every element of d, in document order, with the
// id of the element's absolute path in paths. It is one scan of the
// document's ranks: the stack holds the open elements' subtree ends and
// path ids, so nesting depth costs slice entries, not call frames.
func walkElems(d *dom.Document, paths *pathTable, fn func(id int32, c *dom.Node)) {
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
		id := paths.step(stack[len(stack)-1].id, c)
		fn(id, c)
		stack = append(stack, open{end: c.End(), id: id})
	}
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

// AnalyzeVisit is Analyze with a visitor observing every element and
// attribute as it is measured (nil behaves like Analyze).
func AnalyzeVisit(d *dom.Document, v Visitor) *DocStats {
	s := &DocStats{URI: d.URI, byPath: map[string]*PathStats{}}
	paths := newPathTable()
	var accs []*pathAcc // by path id
	acc := func(id int32, n *dom.Node) *pathAcc {
		for int(id) >= len(accs) {
			accs = append(accs, nil)
		}
		a := accs[id]
		if a == nil {
			path := paths.path[id]
			a = &pathAcc{st: &PathStats{Path: path, FirstOrder: n.Order()}, numeric: true}
			accs[id] = a
			s.byPath[path] = a.st
			s.Paths = append(s.Paths, a.st)
		}
		a.st.Count++
		a.st.LastOrder = n.Order()
		return a
	}
	walkElems(d, paths, func(id int32, c *dom.Node) {
		s.Elements++
		a := acc(id, c)
		if v != nil {
			v.VisitElem(paths.path[id], c)
		}
		for at := c.FirstAttr(); at != nil; at = at.NextSibling() {
			aid := paths.step(id, at)
			aa := acc(aid, at)
			aa.value(at.Data())
			if v != nil {
				v.VisitAttr(paths.path[aid], at)
			}
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
	})
	for _, a := range accs {
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
	s.sortPaths()
	return s
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
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
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

// ResolvePaths expands a path expression (evaluated from the document root)
// against the measured path set: it returns the absolute paths whose nodes
// the expression selects, in path order. ok is false when the expression
// carries a positional predicate — position depends on the context node's
// selection list, which the path set does not capture.
//
// The match replicates xpath.Path.Append's axis semantics: child and attribute
// steps consume exactly one path segment, a descendant step consumes one or
// more (the name test applies to the last), and wildcard element tests never
// match attribute segments.
func (s *DocStats) ResolvePaths(p xpath.Path) ([]string, bool) {
	for _, st := range p.Steps {
		if st.Pos != 0 {
			return nil, false
		}
	}
	var out []string
	for i, ps := range s.Paths {
		if matchSteps(p.Steps, s.segs[i]) {
			out = append(out, ps.Path)
		}
	}
	return out, true
}

// SuffixCount sums the counts of measured paths the expression reaches from
// any context depth (the expression anchored by an implicit leading
// descendant step) — the path-aware cardinality the cost model uses for
// unnest-maps over relative paths. ok is false on positional predicates.
func (s *DocStats) SuffixCount(p xpath.Path) (float64, bool) {
	for _, st := range p.Steps {
		if st.Pos != 0 {
			return 0, false
		}
	}
	var n float64
	for i, ps := range s.Paths {
		segs := s.segs[i]
		for k := 0; k <= len(segs); k++ {
			if matchSteps(p.Steps, segs[k:]) {
				n += float64(ps.Count)
				break
			}
		}
	}
	return n, true
}

func matchSteps(steps []xpath.Step, segs []string) bool {
	if len(steps) == 0 {
		return len(segs) == 0
	}
	st := steps[0]
	switch st.Axis {
	case xpath.AxisChild:
		return len(segs) > 0 && segMatchElem(segs[0], st.Name) &&
			matchSteps(steps[1:], segs[1:])
	case xpath.AxisAttribute:
		return len(segs) > 0 && strings.HasPrefix(segs[0], "@") &&
			(st.Name == "" || segs[0][1:] == st.Name) &&
			matchSteps(steps[1:], segs[1:])
	case xpath.AxisDescendant:
		// Consume one or more segments; the name test applies to the last
		// consumed one (dom.Descendants excludes the context node itself).
		for k := 0; k < len(segs); k++ {
			if segMatchElem(segs[k], st.Name) && matchSteps(steps[1:], segs[k+1:]) {
				return true
			}
		}
	}
	return false
}

func segMatchElem(seg, name string) bool {
	if strings.HasPrefix(seg, "@") {
		return false
	}
	return name == "" || seg == name
}
