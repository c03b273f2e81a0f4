// Package engine seeds one of each opcomplete violation class: a switch
// missing an operator case, a malformed marker (an exempt= list), a
// marker on a non-Op switch, a floating marker, and a required surface
// that does not exist (the "ghost" surface demanded via -require).
package engine // want "must contain an op dispatch surface \"ghost\""

// Op is the operator interface.
type Op interface {
	Children() []Op
}

// Scan is a leaf operator.
type Scan struct{}

// Children implements Op.
func (Scan) Children() []Op { return nil }

// Filter is a unary operator.
type Filter struct{ In Op }

// Children implements Op.
func (f Filter) Children() []Op { return []Op{f.In} }

// Sort is a unary operator.
type Sort struct{ In Op }

// Children implements Op.
func (s Sort) Children() []Op { return []Op{s.In} }

// Dispatch forgets Filter.
func Dispatch(op Op) int {
	//nal:opswitch dispatch
	switch op.(type) { // want "missing cases for: Filter"
	case Scan:
		return 1
	case Sort:
		return 2
	}
	return 0
}

// Legacy still carries an exempt= list: the marker is malformed, so it is
// reported itself instead of leaving the switch unchecked in silence.
func Legacy(op Op) int {
	// want-below "malformed annotation"
	//nal:opswitch legacy exempt=Filter,Sort
	switch op.(type) {
	case Scan:
		return 1
	}
	return 0
}

// NotOp carries a marker on a switch whose tag is not the Op interface.
func NotOp(x interface{}) int {
	//nal:opswitch wrongtag
	switch x.(type) { // want "annotated //nal:opswitch but does not switch on engine.Op"
	case int:
		return 1
	}
	return 0
}

// A marker with no type switch on the next line is a silently-dropped
// invariant and must be reported at the annotation itself.

// want-below "annotation is not attached to a type switch"
//nal:opswitch floating
var orphan = 0

func init() { _ = orphan }
