package value

// Layout is a compiled tuple schema: a fixed assignment of attribute names
// to slot indices, shared by every Row of one operator's output. Layouts are
// resolved once at plan time (see internal/algebra's schema resolver), so
// the per-tuple work of the iterator engine is slice indexing instead of map
// hashing. A Layout is immutable after construction.
type Layout struct {
	names []string
	index map[string]int
	canon []int // slots in sorted-name order (the canonical tuple order)
}

// NewLayout builds a layout over the given attribute names in slot order.
// Duplicate names are rejected (nil return): a well-formed operator scope
// binds every attribute once.
func NewLayout(names ...string) *Layout {
	l := &Layout{names: append([]string(nil), names...), index: make(map[string]int, len(names))}
	for i, n := range names {
		if _, dup := l.index[n]; dup {
			return nil
		}
		l.index[n] = i
	}
	// Already-sorted names (single attributes — the common case) share one
	// identity slot order, keeping NewLayout at allocation parity with the
	// pre-canon revision on the plan-open path.
	sorted := true
	for i := 1; i < len(names); i++ {
		if l.names[i-1] > l.names[i] {
			sorted = false
			break
		}
	}
	if sorted && len(l.names) <= len(identSlots) {
		l.canon = identSlots[:len(l.names)]
		return l
	}
	l.canon = make([]int, len(l.names))
	for i := range l.canon {
		l.canon[i] = i
	}
	// Insertion sort by name: layouts are narrow, and this avoids the
	// reflection swapper sort.Slice allocates (NewLayout runs many times
	// during plan open).
	for i := 1; i < len(l.canon); i++ {
		for j := i; j > 0 && l.names[l.canon[j]] < l.names[l.canon[j-1]]; j-- {
			l.canon[j], l.canon[j-1] = l.canon[j-1], l.canon[j]
		}
	}
	return l
}

// identSlots is the shared identity slot order of sorted-name layouts.
var identSlots = func() []int {
	s := make([]int, 64)
	for i := range s {
		s[i] = i
	}
	return s
}()

// Canon returns the slots in canonical (sorted attribute name) order — the
// order map tuples enumerate their values in (Tuple.EachValue, Attrs). The
// slice is shared; do not mutate.
func (l *Layout) Canon() []int { return l.canon }

// Width returns the slot count.
func (l *Layout) Width() int { return len(l.names) }

// Names returns the attribute names in slot order. The slice is shared; do
// not mutate.
func (l *Layout) Names() []string { return l.names }

// Name returns the attribute name of a slot.
func (l *Layout) Name(slot int) string { return l.names[slot] }

// Slot returns the slot index of an attribute.
func (l *Layout) Slot(name string) (int, bool) {
	i, ok := l.index[name]
	return i, ok
}

// Has reports whether the layout binds the attribute.
func (l *Layout) Has(name string) bool {
	_, ok := l.index[name]
	return ok
}

// Concat returns the layout of tuple concatenation t ◦ u: l's slots followed
// by r's. It fails on a name collision — well-formed plans concatenate
// disjoint attribute sets; under map semantics the right side would silently
// win, and the resolver refuses such a plan instead.
func (l *Layout) Concat(r *Layout) (*Layout, bool) {
	names := make([]string, 0, len(l.names)+len(r.names))
	names = append(names, l.names...)
	names = append(names, r.names...)
	nl := NewLayout(names...)
	return nl, nl != nil
}

// Extend returns a layout with name appended (or l itself when the name is
// already bound, matching χ's overwrite semantics) plus the slot of name.
func (l *Layout) Extend(name string) (*Layout, int) {
	if i, ok := l.index[name]; ok {
		return l, i
	}
	nl := NewLayout(append(append([]string(nil), l.names...), name)...)
	return nl, len(l.names)
}

// Drop returns the layout without the given attributes, plus for every kept
// output slot its source slot in l.
func (l *Layout) Drop(names []string) (*Layout, []int) {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	var kept []string
	var src []int
	for i, n := range l.names {
		if !drop[n] {
			kept = append(kept, n)
			src = append(src, i)
		}
	}
	return NewLayout(kept...), src
}

// Project returns the layout of ΠA plus, per output slot, the source slot in
// l (-1 when l does not bind the attribute — the projection of a missing
// attribute yields an absent value, matching the map semantics).
func (l *Layout) Project(names []string) (*Layout, []int) {
	nl := NewLayout(names...)
	if nl == nil {
		return nil, nil
	}
	src := make([]int, len(names))
	for i, n := range names {
		if s, ok := l.index[n]; ok {
			src[i] = s
		} else {
			src[i] = -1
		}
	}
	return nl, src
}

// Rename returns the layout with old names replaced by new ones at the same
// slots — the O(1)-per-tuple form of ΠA′:A (rows keep their value slice and
// only swap the layout pointer). Pairs are applied against the original
// names, so rename chains and swaps (a→b, b→a) behave like simultaneous
// substitution. It fails (nil) when the result would bind a name twice.
func (l *Layout) Rename(pairs map[string]string) *Layout {
	names := make([]string, len(l.names))
	for i, n := range l.names {
		if nn, ok := pairs[n]; ok {
			names[i] = nn
		} else {
			names[i] = n
		}
	}
	return NewLayout(names...)
}

// Row is one tuple of the slot-based execution engine: a value slice indexed
// by the shared layout. Rows are immutable once emitted — operators that
// change values write a fresh slice (taken from their own chunk, see
// internal/algebra's rowSlab), while pass-through operators (σ, Ξ) and pure
// renames share it.
type Row struct {
	Lay  *Layout
	Vals []Value
}

// NewRow allocates an empty row over the layout.
func NewRow(lay *Layout) Row {
	return Row{Lay: lay, Vals: make([]Value, lay.Width())}
}

// Value returns the value bound to an attribute name (nil when absent), the
// slow name-based accessor for boundaries and tests.
func (r Row) Value(name string) Value {
	if i, ok := r.Lay.Slot(name); ok {
		return r.Vals[i]
	}
	return nil
}

// Tuple converts the row to a map-based tuple for the API boundary. Slots
// holding nil (absent values) are omitted, matching the map engine where an
// unbound attribute is simply not a key.
func (r Row) Tuple() Tuple {
	t := make(Tuple, len(r.Vals))
	for i, v := range r.Vals {
		if v != nil {
			t[r.Lay.names[i]] = v
		}
	}
	return t
}

// ConcatRows implements t ◦ u over rows: two copies into vals, the caller's
// slice of lay.Width() slots. lay must be the Concat of the operands'
// layouts.
func ConcatRows(lay *Layout, vals []Value, l, r Row) Row {
	copy(vals, l.Vals)
	copy(vals[len(l.Vals):], r.Vals)
	return Row{Lay: lay, Vals: vals}
}

// MapSlots copies the source row through a slot mapping (as produced by
// Layout.Project / Layout.Drop) into vals, the caller's zeroed slice of
// len(src) slots: out slot i receives src slot src[i], or stays nil when
// src[i] < 0.
func MapSlots(lay *Layout, vals []Value, src []int, r Row) Row {
	for i, s := range src {
		if s >= 0 {
			vals[i] = r.Vals[s]
		}
	}
	return Row{Lay: lay, Vals: vals}
}
