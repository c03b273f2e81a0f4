// Package index implements the structural and value indexes of the store
// tier: for every absolute path of a document, the ordered list of its nodes
// (structural index), and for simple-content paths additionally a hash map
// from the leaf's typed value key to its nodes (value index). Both are built
// in the same single walk that measures the document's statistics
// (stats.AnalyzeVisit), so Build returns the DocStats alongside.
//
// The planner substitutes an algebra.IndexScan for a full Υ-scan (plus a
// selection, for value probes) when a query path resolves onto indexed
// paths — see internal/core's SubstituteIndexes. Probe semantics are exact:
// value keys use value.KeyOf, whose equality classes coincide with
// value.CompareAtomic equality by construction — both read the atom rule of
// internal/value, and FuzzCompareAtoms holds them to it — so an equality
// probe returns precisely the nodes a scan-and-filter would keep; ordered comparisons fall back to a
// linear pass over the path's node list with the same GeneralCompare the
// σ predicate would run.
package index

import (
	"nalquery/internal/dom"
	"nalquery/internal/stats"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

// PathIndex indexes the nodes at one absolute path.
type PathIndex struct {
	// Path is the absolute path ("/bib/book", "/bib/book/@year").
	Path string
	// Nodes lists the path's nodes in document order.
	Nodes []*dom.Node
	// HasValues reports that the value layer below is populated (simple
	// content only — see stats.PathStats.Simple).
	HasValues bool

	eq map[value.HashKey][]*dom.Node
}

// ScanAll implements algebra.NodeIndex: the full node list, document order.
func (x *PathIndex) ScanAll() []*dom.Node { return x.Nodes }

// ProbeEq implements algebra.NodeIndex: the nodes whose atomized value
// equals the given atomic key (exact — KeyOf equality coincides with
// CompareAtomic equality, see FuzzCompareAtoms). ok is false when the path
// has no value layer.
func (x *PathIndex) ProbeEq(key value.Value) ([]*dom.Node, bool) {
	if !x.HasValues {
		return nil, false
	}
	return x.eq[value.KeyOf(key)], true
}

// ProbeCmp implements algebra.NodeIndex: the nodes whose value compares true
// against the atomic key under op — a linear pass over the path's nodes with
// the same comparison a scan-and-filter would run, avoiding only the tree
// traversal. ok is false when the path has no value layer.
func (x *PathIndex) ProbeCmp(op value.CmpOp, key value.Value) ([]*dom.Node, bool) {
	if !x.HasValues {
		return nil, false
	}
	var out []*dom.Node
	for _, n := range x.Nodes {
		if value.GeneralCompare(value.NodeVal{Node: n}, key, op) {
			out = append(out, n)
		}
	}
	return out, true
}

// merged is the union of several path indexes: the NodeIndex a structural
// scan over a multi-path expression (e.g. //title across chapters and books)
// resolves to. It has no value layer.
type merged struct{ nodes []*dom.Node }

func (m *merged) ScanAll() []*dom.Node                                 { return m.nodes }
func (m *merged) ProbeEq(value.Value) ([]*dom.Node, bool)              { return nil, false }
func (m *merged) ProbeCmp(value.CmpOp, value.Value) ([]*dom.Node, bool) { return nil, false }

// DocIndexes holds every path index of one document plus the statistics
// measured by the same walk.
type DocIndexes struct {
	URI    string
	ByPath map[string]*PathIndex
	Stats  *stats.DocStats
}

// builder collects nodes per path during the stats walk.
type builder struct {
	x *DocIndexes
}

func (b *builder) visit(path string, n *dom.Node) {
	px := b.x.ByPath[path]
	if px == nil {
		px = &PathIndex{Path: path}
		b.x.ByPath[path] = px
	}
	px.Nodes = append(px.Nodes, n)
}

func (b *builder) VisitElem(path string, n *dom.Node) { b.visit(path, n) }
func (b *builder) VisitAttr(path string, n *dom.Node) { b.visit(path, n) }

// Build walks a document once, measuring its statistics and building the
// structural index of every path plus the value index of every simple path.
func Build(d *dom.Document) *DocIndexes { return BuildWith(d, nil) }

// BuildWith is Build with optionally pre-measured statistics (a persisted
// NALB2 record): when given, the walk only collects index nodes and the
// measuring pass is skipped.
func BuildWith(d *dom.Document, st *stats.DocStats) *DocIndexes {
	x := &DocIndexes{URI: d.URI, ByPath: map[string]*PathIndex{}}
	b := &builder{x: x}
	if st != nil {
		x.Stats = st
		stats.Walk(d, b)
	} else {
		x.Stats = stats.AnalyzeVisit(d, b)
	}
	for path, px := range x.ByPath {
		ps := x.Stats.Path(path)
		if ps == nil || !ps.Simple {
			continue
		}
		px.HasValues = true
		px.eq = make(map[value.HashKey][]*dom.Node, ps.Distinct)
		for _, n := range px.Nodes {
			k := value.KeyOf(value.NodeVal{Node: n})
			px.eq[k] = append(px.eq[k], n)
		}
	}
	return x
}

// ScanInfo describes the index resolution of a structural scan.
type ScanInfo struct {
	// Index yields the expression's nodes in document order.
	Index interface {
		ScanAll() []*dom.Node
		ProbeEq(key value.Value) ([]*dom.Node, bool)
		ProbeCmp(op value.CmpOp, key value.Value) ([]*dom.Node, bool)
	}
	// Path is the display form of the resolved absolute path(s).
	Path string
	// Card is the measured node count.
	Card float64
}

// Scan resolves a path expression (from the document root) onto the
// structural indexes: the returned index enumerates exactly the nodes
// xpath.Path.Append would select, in document order. ok is false when the
// expression cannot be resolved from the path set (positional predicates)
// or reaches no measured path.
func (x *DocIndexes) Scan(p xpath.Path) (ScanInfo, bool) {
	paths, ok := x.Stats.ResolvePaths(p)
	if !ok || len(paths) == 0 {
		return ScanInfo{}, false
	}
	if len(paths) == 1 {
		px := x.ByPath[paths[0]]
		return ScanInfo{Index: px, Path: px.Path, Card: float64(len(px.Nodes))}, true
	}
	// Multiple paths: union in document order. Absolute paths partition the
	// nodes, so a k-way append+sort dedupes nothing — every node appears
	// exactly once.
	var nodes []*dom.Node
	display := paths[0]
	for i, ap := range paths {
		nodes = append(nodes, x.ByPath[ap].Nodes...)
		if i > 0 {
			display += "|" + ap
		}
	}
	dom.SortDocOrder(nodes)
	return ScanInfo{Index: &merged{nodes: nodes}, Path: display, Card: float64(len(nodes))}, true
}

// ValueInfo describes the index resolution of a value probe.
type ValueInfo struct {
	// Index is the value index at the leaf path.
	Index interface {
		ScanAll() []*dom.Node
		ProbeEq(key value.Value) ([]*dom.Node, bool)
		ProbeCmp(op value.CmpOp, key value.Value) ([]*dom.Node, bool)
	}
	// Path is the resolved absolute leaf path.
	Path string
	// Depth is the number of parent hops from an indexed leaf node up to
	// the node the scan binds (len of the predicate's relative path).
	Depth int
	// Card is the expected number of bound nodes an equality probe keeps
	// (count/distinct, at least 1).
	Card float64
	// ScanCard is the measured count of nodes at the base path.
	ScanCard float64
}

// Value resolves a value predicate base/rel (σ with a comparison on the
// rel path of the nodes the base path binds) onto a value index. The
// combined path must resolve onto exactly one measured leaf path with a
// value layer, and every rel step must consume exactly one level (child or
// attribute axis) so the parent-hop depth is fixed. ok is false otherwise.
func (x *DocIndexes) Value(base, rel xpath.Path) (ValueInfo, bool) {
	for _, st := range rel.Steps {
		if st.Axis == xpath.AxisDescendant || st.Pos != 0 {
			return ValueInfo{}, false
		}
	}
	combined := xpath.Path{Steps: append(append([]xpath.Step{}, base.Steps...), rel.Steps...)}
	paths, ok := x.Stats.ResolvePaths(combined)
	if !ok || len(paths) != 1 {
		return ValueInfo{}, false
	}
	px := x.ByPath[paths[0]]
	if !px.HasValues {
		return ValueInfo{}, false
	}
	ps := x.Stats.Path(paths[0])
	card := float64(ps.Count)
	if ps.Distinct > 0 {
		card = float64(ps.Count) / float64(ps.Distinct)
	}
	if card < 1 {
		card = 1
	}
	scanCard := card
	if basePaths, ok := x.Stats.ResolvePaths(base); ok {
		scanCard = 0
		for _, bp := range basePaths {
			if bps := x.Stats.Path(bp); bps != nil {
				scanCard += float64(bps.Count)
			}
		}
	}
	return ValueInfo{Index: px, Path: px.Path, Depth: len(rel.Steps),
		Card: card, ScanCard: scanCard}, true
}
