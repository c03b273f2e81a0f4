package value

import "strings"

// RowSeq is the slot-native tuple sequence: the group payloads created by Γ,
// the e[a] constructor and nested query blocks, carried as rows over one
// shared Layout instead of a slice of map tuples. It implements Value with
// the same Kind as TupleSeq (the logical data model is unchanged — only the
// representation is), and every consumer of tuple-sequence values
// (atomization, printing, comparison, µ/µD) reads it without converting.
// Map tuples materialize from a RowSeq only at the public API and the
// differential-test boundary (Tuples).
//
// The backing is flat: width·n contiguous values, built by e[a] bindings and
// ΠA payload projection, where members are constructed rather than inherited
// from the rows they were computed from (the engine cuts a narrow one from a
// chunk it shares with the builder's neighbouring payloads). So a payload
// never shares memory with an operator's row arrays.
//
// Like Row, a RowSeq is immutable once emitted.
type RowSeq struct {
	lay  *Layout
	flat []Value // stride lay.Width()
	n    int
}

// RowSeqOfFlat wraps a flat backing of n·lay.Width() values.
func RowSeqOfFlat(lay *Layout, flat []Value) RowSeq {
	n := 0
	if w := lay.Width(); w > 0 {
		n = len(flat) / w
	}
	return RowSeq{lay: lay, flat: flat, n: n}
}

// BindRowSeqLay is the slot-native e[a] constructor: a sequence of rows
// under lay, a caller-cached single-attribute layout (the compiled path
// builds it once per plan, not once per tuple), sharing the item sequence as
// their flat backing — zero per-item work instead of one map per item. The
// item slice is aliased, not copied — values are immutable throughout the
// engine, and a width-1 flat backing is exactly an item sequence.
func BindRowSeqLay(lay *Layout, items Seq) RowSeq {
	return RowSeq{lay: lay, flat: items, n: len(items)}
}

// Kind implements Value. A RowSeq is a tuple sequence; only the
// representation differs.
func (rs RowSeq) Kind() Kind { return KTupleSeq }

// Lay returns the shared member layout.
func (rs RowSeq) Lay() *Layout { return rs.lay }

// Len returns the member count.
func (rs RowSeq) Len() int { return rs.n }

// At returns member i as a Row under the sequence's layout: a window of the
// backing.
func (rs RowSeq) At(i int) Row {
	w := rs.lay.Width()
	off := i * w
	return Row{Lay: rs.lay, Vals: rs.flat[off : off+w : off+w]}
}

// Tuples materializes the members as map tuples — for the definitional
// evaluator (TuplesOf) and the differential-test boundary; the row engine
// never calls it.
func (rs RowSeq) Tuples() TupleSeq {
	out := make(TupleSeq, rs.n)
	for i := 0; i < rs.n; i++ {
		out[i] = rs.At(i).Tuple()
	}
	return out
}

// EachValue calls fn with member i's attribute values in canonical
// (sorted-name) order, skipping absent (nil) slots — the order Ξ printing,
// atomization and AsSeq use, matching Tuple.EachValue.
func (rs RowSeq) EachValue(i int, fn func(Value)) {
	r := rs.At(i)
	for _, s := range rs.lay.Canon() {
		if v := r.Vals[s]; v != nil {
			fn(v)
		}
	}
}

func (rs RowSeq) String() string {
	parts := make([]string, rs.n)
	for i := 0; i < rs.n; i++ {
		parts[i] = rs.At(i).Tuple().String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// TuplesOf views a tuple-sequence value through the map-tuple lens: a
// TupleSeq stays itself, a RowSeq materializes. ok=false for any other
// value. The definitional evaluator reads payloads through it, so it can be
// handed either representation.
func TuplesOf(v Value) (TupleSeq, bool) {
	switch w := v.(type) {
	case TupleSeq:
		return w, true
	case RowSeq:
		return w.Tuples(), true
	default:
		return nil, false
	}
}
