package core

import (
	"nalquery/internal/algebra"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

// This file is the planner's index substitution: with a statistics/index
// catalog at hand (the engine snapshot's per-document indexes), full-scan
// shapes rewrite into algebra.IndexScan —
//
//	Υ[b:path](…doc-bound…)            ⇒  IdxScan[b:path]            (structural)
//	σ[b/rel cmp k](Υ[b:path](…))      ⇒  IdxScan[b:path/rel cmp k]  (value probe)
//
// The value form consumes exactly the matched conjunct; remaining conjuncts
// keep their σ above the scan. Both forms preserve document order (the
// index lists are doc-ordered) and therefore the plan's output, which the
// differential gate pins on every paper query and the generated-query
// corpus. Substitution produces additional plan alternatives — the base
// plans stay on offer, and the cost model decides from the measured
// cardinality each probe carries.

// ScanInfo is an index catalog's answer for a structural scan.
type ScanInfo struct {
	Index algebra.NodeIndex
	// Path is the resolved absolute path (display form).
	Path string
	// Card is the measured node count.
	Card float64
}

// ValueInfo is an index catalog's answer for a value probe.
type ValueInfo struct {
	Index algebra.NodeIndex
	// Path is the resolved absolute leaf path.
	Path string
	// Depth is the parent-hop count from indexed leaf to bound node.
	Depth int
	// Card is the expected equality-probe result count (count/distinct).
	Card float64
	// ScanCard is the measured count of nodes the unprobed scan binds.
	ScanCard float64
}

// IndexCatalog resolves document paths onto available indexes. Implemented
// by the engine over its snapshot's per-document index set; nil disables
// substitution.
type IndexCatalog interface {
	// ScanIndex resolves a root-relative path of the given document onto a
	// structural index covering exactly the nodes the path selects.
	ScanIndex(uri string, p xpath.Path) (ScanInfo, bool)
	// ValueIndex resolves a value predicate — rel applied to the nodes the
	// base path binds — onto a value index at the combined leaf path.
	ValueIndex(uri string, base, rel xpath.Path) (ValueInfo, bool)
}

// SubstituteIndexes rewrites index-answerable scans of a plan into
// IndexScan operators, bottom-up. Operator subscripts (nested algebraic
// expressions) are left untouched: their scans see free outer variables,
// which the per-open index resolution cannot bind. The reported flag is
// true when at least one scan was substituted.
func SubstituteIndexes(op algebra.Op, cat IndexCatalog) (algebra.Op, bool) {
	if cat == nil {
		return op, false
	}
	changed := false
	var conv func(algebra.Op) algebra.Op
	conv = func(o algebra.Op) algebra.Op {
		// Top-down: the σ-over-Υ value form must see the pristine Υ before
		// the recursion would turn it into a structural scan.
		out, swapped := swapIndexed(o, cat)
		changed = changed || swapped
		return out.MapChildren(conv)
	}
	return conv(op), changed
}

// swapIndexed substitutes at one node (whose children are already
// processed).
func swapIndexed(op algebra.Op, cat IndexCatalog) (algebra.Op, bool) {
	switch w := op.(type) {
	case algebra.Select:
		um, ok := w.In.(algebra.UnnestMap)
		if !ok {
			return op, false
		}
		uri, base, ok := scanShape(um)
		if !ok {
			return op, false
		}
		cs := algebra.Conjuncts(w.Pred)
		for i, c := range cs {
			rel, cmp, key, ok := matchProbe(c, um.Attr)
			if !ok || cmp == value.CmpNe {
				continue
			}
			vi, ok := cat.ValueIndex(uri, base, rel)
			if !ok {
				continue
			}
			est := vi.Card
			if cmp != value.CmpEq {
				// Ordered comparisons probe by a linear pass; assume the
				// textbook third of the scan qualifies.
				est = vi.ScanCard / 3
			}
			scan := algebra.IndexScan{In: um.In, Attr: um.Attr, URI: uri,
				Path: vi.Path, Index: vi.Index, Depth: vi.Depth,
				Cmp: cmp, Key: key, EstCard: est}
			rest := append(append([]algebra.Expr{}, cs[:i]...), cs[i+1:]...)
			return wrapSelect(scan, rest), true
		}
		// No probe-able conjunct: a structural substitution below the σ
		// already happened in the child pass if applicable.
		return op, false

	case algebra.UnnestMap:
		uri, p, ok := scanShape(w)
		if !ok {
			return op, false
		}
		si, ok := cat.ScanIndex(uri, p)
		if !ok {
			return op, false
		}
		return algebra.IndexScan{In: w.In, Attr: w.Attr, URI: uri,
			Path: si.Path, Index: si.Index, EstCard: si.Card}, true
	}
	return op, false
}

// wrapSelect places the conjuncts back on top of op as a single selection;
// with no conjuncts it returns op unchanged.
func wrapSelect(op algebra.Op, conjuncts []algebra.Expr) algebra.Op {
	if len(conjuncts) == 0 {
		return op
	}
	return algebra.Select{In: op, Pred: algebra.AndOf(conjuncts)}
}

// scanShape recognizes a document-rooted Υ: no positional attribute, the
// subscript a plain path over a variable bound to a constant doc() below
// (or doc() itself).
func scanShape(um algebra.UnnestMap) (uri string, p xpath.Path, ok bool) {
	if um.PosAttr != "" {
		return "", xpath.Path{}, false
	}
	po, isPath := um.E.(algebra.PathOf)
	if !isPath {
		return "", xpath.Path{}, false
	}
	switch in := po.Input.(type) {
	case algebra.Doc:
		return in.URI, po.Path, true
	case algebra.Var:
		uri, ok := docBinder(um.In, in.Name)
		return uri, po.Path, ok
	}
	return "", xpath.Path{}, false
}

// docBinder walks down a single-input operator chain looking for the
// binder of name. Only a Map of a constant doc() qualifies: its value is
// identical for every input tuple, so resolving the index once per open is
// exact. The walk is conservative — any other binder of name, or any
// operator shape it does not recognize, fails the substitution.
func docBinder(op algebra.Op, name string) (string, bool) {
	for {
		switch w := op.(type) {
		case algebra.Map:
			if w.Attr == name {
				d, ok := w.E.(algebra.Doc)
				return d.URI, ok
			}
			op = w.In
		case algebra.UnnestMap:
			if w.Attr == name || w.PosAttr == name {
				return "", false
			}
			op = w.In
		case algebra.IndexScan:
			if w.Attr == name {
				return "", false
			}
			op = w.In
		case algebra.Select:
			op = w.In
		case algebra.Project:
			op = w.In
		case algebra.ProjectDrop:
			op = w.In
		case algebra.Sort:
			op = w.In
		case algebra.Singleton:
			return "", false
		default:
			return "", false
		}
	}
}

// matchProbe recognizes one probe-able conjunct: a comparison between a
// plain path over the scan variable and a constant or external parameter
// (either side; a swapped comparison flips the operator).
func matchProbe(c algebra.Expr, b string) (rel xpath.Path, op value.CmpOp, key algebra.Expr, ok bool) {
	cmp, isCmp := c.(algebra.CmpExpr)
	if !isCmp {
		return
	}
	if r, rok := relPathOf(cmp.L, b); rok && constKey(cmp.R) {
		return r, cmp.Op, cmp.R, true
	}
	if r, rok := relPathOf(cmp.R, b); rok && constKey(cmp.L) {
		return r, flipCmp(cmp.Op), cmp.L, true
	}
	return
}

// relPathOf matches $b (empty path) or $b/rel.
func relPathOf(e algebra.Expr, b string) (xpath.Path, bool) {
	switch w := e.(type) {
	case algebra.Var:
		if w.Name == b {
			return xpath.Path{}, true
		}
	case algebra.PathOf:
		if v, ok := w.Input.(algebra.Var); ok && v.Name == b {
			return w.Path, true
		}
	}
	return xpath.Path{}, false
}

// constKey reports a key expression with no free tuple variables.
func constKey(e algebra.Expr) bool {
	switch e.(type) {
	case algebra.ConstVal, algebra.Param:
		return true
	}
	return false
}
