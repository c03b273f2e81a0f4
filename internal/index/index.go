// Package index implements the structural and value indexes of the store
// tier: for every absolute path of a document, the document-order ranks of
// its nodes (structural index), and for simple-content paths additionally
// the same ranks grouped by the leaf's typed value key (value index). Both
// are built from the path table of the analyzer's one walk (stats.Walk),
// which also measures the DocStats Build returns alongside.
//
// A query path resolves against the paths that walk numbered
// (xpath.Path.Selects), never against the statistics: statistics a store
// file carries may omit a path, name one the document lacks or misstate a
// count, and that moves estimates and the choice of value layers, not the
// nodes a scan or probe returns.
//
// The indexes hold no pointer into the document. A posting is an int32 rank
// that dom.Document.Node resolves; every path's rank list is a window of one
// flat array; and a path's value layer is three []int32 — its ranks grouped
// by key, the group offsets, and the slots of the value.KeyTable that
// numbered the keys (value.ProbeSlots, the engine's one probe loop, walks
// them; the table's groups are dropped once the build is done) — plus the
// key seed it was built under. So the collector has nothing inside them to
// trace, and a build allocates per path, not per distinct key.
//
// The planner substitutes an algebra.IndexScan for a full Υ-scan (plus a
// selection, for value probes) when a query path resolves onto indexed
// paths — see internal/core's SubstituteIndexes. Probe semantics are exact:
// value keys use value.KeyOf, whose equality classes coincide with
// value.CompareAtomic equality by construction — both read the atom rule of
// internal/value, and FuzzCompareAtoms holds them to it — and a probe
// accepts a group only when KeyOf of the group's first member equals the
// probe key, so no answer depends on the hash. An equality probe therefore
// returns precisely the nodes a scan-and-filter would keep (FuzzIndexProbe);
// the other comparisons are a pass over the path's rank list (ScanAll) with
// the same GeneralCompare the σ predicate would run.
package index

import (
	"slices"
	"strings"

	"nalquery/internal/dom"
	"nalquery/internal/stats"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

// PathIndex indexes the nodes at one absolute path.
type PathIndex struct {
	// Path is the absolute path ("/bib/book", "/bib/book/@year").
	Path string
	// Ranks lists the document-order ranks of the path's nodes, ascending.
	Ranks []int32
	// HasValues reports that the value layer below is populated: the
	// statistics call the path simple (stats.PathStats.Simple). A probe is
	// exact on any path, since a key is the node's whole string value.
	HasValues bool

	doc  *dom.Document
	vals values
}

// Doc implements algebra.NodeIndex: the document the ranks index.
func (x *PathIndex) Doc() *dom.Document { return x.doc }

// ScanAll implements algebra.NodeIndex: every rank, document order.
func (x *PathIndex) ScanAll() []int32 { return x.Ranks }

// ProbeEq implements algebra.NodeIndex: the ranks of the nodes whose
// atomized value equals the given atomic key, in document order (exact —
// KeyOf equality coincides with CompareAtomic equality, see
// FuzzCompareAtoms). ok is false when the path has no value layer.
func (x *PathIndex) ProbeEq(key value.Value) ([]int32, bool) {
	if !x.HasValues {
		return nil, false
	}
	return x.vals.probe(x.doc, value.KeyOf(key), x.vals.seed.hash), true
}

// values is one path's value layer: its ranks grouped by KeyOf, found
// through the slots of the value.KeyTable that numbered them.
type values struct {
	// members holds the path's ranks grouped by key, in document order
	// within each group; group g is members[starts[g]:starts[g+1]].
	members, starts []int32
	// slots is the slot table of the value.KeyTable the build numbered the
	// keys with (value.ProbeSlots walks it). The table's groups are
	// dropped; a probe reads group g's key off its first member.
	slots []int32
	// seed is the key seed the layer was built under.
	seed seeded
}

// seeded is a key seed, and its hash the value layers' hash of a key.
type seeded uint64

func (s seeded) hash(k value.HashKey) uint64 { return k.Hash(uint64(s)) }

// probe returns the group whose first member's key is k, or nil. hash must
// be the one the layer was built with.
func (v *values) probe(d *dom.Document, k value.HashKey, hash func(value.HashKey) uint64) []int32 {
	g, _ := value.ProbeSlots(v.slots, hash(k), func(g int32) bool {
		return value.KeyOf(value.NodeVal{Node: d.Node(int(v.members[v.starts[g]]))}) == k
	})
	if g < 0 {
		return nil
	}
	lo, hi := v.starts[g], v.starts[g+1]
	return v.members[lo:hi:hi]
}

// buildValues groups ranks (ascending) by the key of their nodes, numbering
// the keys through a value.KeyTable placed by hash, and keeps its slots.
// distinct is the expected number of keys; it sizes the tables and is only a
// hint (a persisted statistics record may say anything).
func buildValues(d *dom.Document, ranks []int32, distinct int, hash func(value.HashKey) uint64) values {
	distinct = max(min(distinct, len(ranks)), 1)
	var ids value.KeyTable
	ids.Reset(distinct)
	group := make([]int32, len(ranks))     // the group of ranks[i]
	starts := make([]int32, 0, distinct+1) // group g's size, then its offset
	for i, r := range ranks {
		n := value.NodeVal{Node: d.Node(int(r))}
		g, added := ids.Insert(hash(value.KeyOf(n)), int32(i), func(first int32) bool {
			return value.SameKey(value.NodeVal{Node: d.Node(int(ranks[first]))}, n)
		})
		if added {
			starts = append(starts, 0)
		}
		group[i] = g
		starts[g]++
	}
	// Turn each group's size into its end, then place the ranks back to
	// front: each end steps down to the group's start, and every group
	// keeps document order.
	var end int32
	for g, n := range starts {
		end += n
		starts[g] = end
	}
	members := make([]int32, len(ranks))
	for i := len(ranks) - 1; i >= 0; i-- {
		g := group[i]
		starts[g]--
		members[starts[g]] = ranks[i]
	}
	starts = append(starts, int32(len(ranks)))
	return values{members: members, starts: starts, slots: ids.Slots()}
}

// merged is the union of several path indexes: the NodeIndex a structural
// scan over a multi-path expression (e.g. //title across chapters and books)
// resolves to. It has no value layer.
type merged struct {
	doc   *dom.Document
	ranks []int32
}

func (m *merged) Doc() *dom.Document                  { return m.doc }
func (m *merged) ScanAll() []int32                    { return m.ranks }
func (m *merged) ProbeEq(value.Value) ([]int32, bool) { return nil, false }

// DocIndexes holds every path index of one document plus its statistics.
type DocIndexes struct {
	URI string
	// Paths holds one index per absolute path of the document, sorted by
	// path: the paths the build's walk numbered, which are all that Scan
	// and Value resolve against.
	Paths []PathIndex
	// Stats is the document's statistics: measured by the build's walk, or
	// adopted as given. They choose the paths that get a value layer and
	// feed the estimates; they never decide which nodes an index holds.
	Stats *stats.DocStats
}

// Build walks a document once, measuring its statistics and building the
// structural index of every path plus the value index of every simple path.
func Build(d *dom.Document) *DocIndexes { return BuildWith(d, nil) }

// BuildWith is Build with optionally pre-measured statistics (a persisted
// NALB2 record): when given, the walk only numbers the paths and the
// measuring is skipped.
func BuildWith(d *dom.Document, st *stats.DocStats) *DocIndexes {
	t, measured := stats.Walk(d, st == nil)
	if st == nil {
		st = measured
	}
	// Every path's rank list is its window of the walk's one rank array.
	slab := make([]PathIndex, len(t.Path)-1) // path id i at slab[i-1]
	for i := range slab {
		slab[i] = PathIndex{Path: t.Path[i+1], Ranks: t.Ranks(int32(i + 1)), doc: d}
	}
	slices.SortStableFunc(slab, func(a, b PathIndex) int { return strings.Compare(a.Path, b.Path) })
	seed := seeded(value.KeySeed())
	for i := range slab {
		px := &slab[i]
		ps := st.Path(px.Path)
		if ps == nil || !ps.Simple {
			continue
		}
		px.HasValues = true
		px.vals = buildValues(d, px.Ranks, int(ps.Distinct), seed.hash)
		px.vals.seed = seed
	}
	return &DocIndexes{URI: d.URI, Paths: slab, Stats: st}
}

// resolve appends to dst the indexes of the paths p selects, in path
// order. ok is false for a positional p.
func (x *DocIndexes) resolve(dst []*PathIndex, p xpath.Path) ([]*PathIndex, bool) {
	if p.Positional() {
		return nil, false
	}
	for i := range x.Paths {
		if p.Selects(x.Paths[i].Path) {
			dst = append(dst, &x.Paths[i])
		}
	}
	return dst, true
}

// ScanInfo describes the index resolution of a structural scan.
type ScanInfo struct {
	// Index yields the expression's node ranks in document order.
	Index interface {
		Doc() *dom.Document
		ScanAll() []int32
		ProbeEq(key value.Value) ([]int32, bool)
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
// or reaches no path of the document.
func (x *DocIndexes) Scan(p xpath.Path) (ScanInfo, bool) {
	var buf [8]*PathIndex
	paths, ok := x.resolve(buf[:0], p)
	if !ok || len(paths) == 0 {
		return ScanInfo{}, false
	}
	if len(paths) == 1 {
		return ScanInfo{Index: paths[0], Path: paths[0].Path, Card: float64(len(paths[0].Ranks))}, true
	}
	// Multiple paths: union in document order. Absolute paths partition the
	// nodes, so the sorted concatenation repeats no rank.
	var total int
	for _, px := range paths {
		total += len(px.Ranks)
	}
	ranks := make([]int32, 0, total)
	display := make([]string, len(paths))
	for i, px := range paths {
		ranks = append(ranks, px.Ranks...)
		display[i] = px.Path
	}
	slices.Sort(ranks)
	return ScanInfo{Index: &merged{doc: paths[0].doc, ranks: ranks},
		Path: strings.Join(display, "|"), Card: float64(len(ranks))}, true
}

// ValueInfo describes the index resolution of a value probe.
type ValueInfo struct {
	// Index is the value index at the leaf path.
	Index interface {
		Doc() *dom.Document
		ScanAll() []int32
		ProbeEq(key value.Value) ([]int32, bool)
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
// combined path must resolve onto exactly one path with a value layer, and
// every rel step must consume exactly one level (child or attribute axis)
// so the parent-hop depth is fixed. ok is false otherwise.
func (x *DocIndexes) Value(base, rel xpath.Path) (ValueInfo, bool) {
	for _, st := range rel.Steps {
		if st.Axis == xpath.AxisDescendant {
			return ValueInfo{}, false
		}
	}
	var buf [8]*PathIndex
	combined := xpath.Path{Steps: append(append([]xpath.Step{}, base.Steps...), rel.Steps...)}
	leaf, ok := x.resolve(buf[:0], combined)
	if !ok || len(leaf) != 1 || !leaf[0].HasValues {
		return ValueInfo{}, false
	}
	px := leaf[0]
	card := float64(len(px.Ranks))
	if ps := x.Stats.Path(px.Path); ps != nil && ps.Distinct > 0 {
		card /= float64(ps.Distinct)
	}
	var scanCard float64
	bound, _ := x.resolve(buf[:0], base)
	for _, bx := range bound {
		scanCard += float64(len(bx.Ranks))
	}
	return ValueInfo{Index: px, Path: px.Path, Depth: len(rel.Steps),
		Card: max(card, 1), ScanCard: scanCard}, true
}
