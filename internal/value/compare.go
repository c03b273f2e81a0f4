package value

import (
	"fmt"
	"strconv"
	"strings"
)

// CmpOp is a comparison operator θ ∈ {=, ≠, <, ≤, >, ≥} on atomic values.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String returns the XQuery spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return fmt.Sprintf("cmp(%d)", uint8(op))
	}
}

// Negate returns the complement operator (¬θ), used by Eqv. 7 where ∀ turns
// into an anti-join with the negated predicate.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	case CmpGe:
		return CmpLt
	}
	return op
}

// Atomize converts a value into its sequence of atomic items: nodes become
// their (untyped) string value, sequences atomize element-wise, Null yields
// the empty sequence.
func Atomize(v Value) Seq {
	switch w := v.(type) {
	case nil, Null:
		return nil
	case NodeVal:
		return Seq{Str(w.Node.StringValue())}
	case Seq:
		var out Seq
		for _, item := range w {
			out = append(out, Atomize(item)...)
		}
		return out
	case TupleSeq:
		// A sequence-valued attribute created by e[a] or Γ atomizes to the
		// atomized values of its tuples' attributes, in order.
		var out Seq
		for _, t := range w {
			t.EachValue(func(v Value) { out = append(out, Atomize(v)...) })
		}
		return out
	case RowSeq:
		var out Seq
		for i := 0; i < w.Len(); i++ {
			w.EachValue(i, func(v Value) { out = append(out, Atomize(v)...) })
		}
		return out
	default:
		return Seq{w}
	}
}

// AtomizeSingle atomizes and returns the single atomic item, or nil when the
// value atomizes to the empty sequence. Multi-item sequences return their
// first item (the use-case queries only apply this to singletons). Unlike
// Atomize it never materializes the sequence, but a node still costs the box
// of its string value — the per-tuple consumers (comparison, hash key, the
// builtins' string and number arguments) therefore read items directly
// (CompareAtomic, KeyOf, AtomText) and come here only when the atom itself
// must be kept.
func AtomizeSingle(v Value) Value {
	switch w := v.(type) {
	case nil, Null:
		return nil
	case NodeVal:
		return Str(w.Node.StringValue())
	case Seq:
		for _, item := range w {
			if a := AtomizeSingle(item); a != nil {
				return a
			}
		}
		return nil
	case TupleSeq:
		for _, t := range w {
			for _, a := range t.Attrs() {
				if x := AtomizeSingle(t[a]); x != nil {
					return x
				}
			}
		}
		return nil
	case RowSeq:
		for i := 0; i < w.Len(); i++ {
			r := w.At(i)
			for _, s := range w.Lay().Canon() {
				if v := r.Vals[s]; v != nil {
					if x := AtomizeSingle(v); x != nil {
						return x
					}
				}
			}
		}
		return nil
	default:
		return w
	}
}

// AtomText is AtomizeSingle(v).String() without boxing the atom: the text of
// the value's single atomic item, ok=false when it atomizes to the empty
// sequence.
func AtomText(v Value) (string, bool) {
	switch w := v.(type) {
	case nil, Null:
		return "", false
	case NodeVal:
		return w.Node.StringValue(), true
	case Str:
		return string(w), true
	case Seq:
		for _, item := range w {
			if s, ok := AtomText(item); ok {
				return s, true
			}
		}
		return "", false
	case TupleSeq, RowSeq:
		if a := AtomizeSingle(v); a != nil {
			return a.String(), true
		}
		return "", false
	default:
		return w.String(), true
	}
}

// AppendItems appends the items v atomizes from to dst: Atomize without the
// per-node box. Nodes stay NodeVal — every consumer of atoms (CompareAtomic,
// KeyOf, AtomText) reads a node's string value directly — and a caller that
// folds the items (aggregates, distinct-values) reuses dst across calls.
func AppendItems(dst Seq, v Value) Seq {
	switch w := v.(type) {
	case nil, Null:
	case Seq:
		for _, item := range w {
			dst = AppendItems(dst, item)
		}
	case TupleSeq:
		for _, t := range w {
			t.EachValue(func(x Value) { dst = AppendItems(dst, x) })
		}
	case RowSeq:
		for i := 0; i < w.Len(); i++ {
			w.EachValue(i, func(x Value) { dst = AppendItems(dst, x) })
		}
	default:
		dst = append(dst, v)
	}
	return dst
}

type atom struct {
	isNum bool
	num   float64
	str   string
	// src defers string rendering of numeric atoms to the rare mixed
	// numeric-vs-string comparison, keeping the all-numeric path free of
	// the FormatInt/FormatFloat allocation.
	src Value
}

// text renders the atom for string comparison.
func (a atom) text() string {
	if a.isNum && a.str == "" && a.src != nil {
		return a.src.String()
	}
	return a.str
}

func toAtom(v Value) (atom, bool) {
	switch w := v.(type) {
	case nil, Null:
		return atom{}, false
	case Bool:
		if bool(w) {
			return atom{isNum: true, num: 1, str: "true"}, true
		}
		return atom{isNum: true, num: 0, str: "false"}, true
	case Int:
		return atom{isNum: true, num: float64(w), src: v}, true
	case Float:
		return atom{isNum: true, num: float64(w), src: v}, true
	case Str:
		return textAtom(string(w)), true
	case NodeVal:
		return textAtom(w.Node.StringValue()), true
	default:
		return atom{}, false
	}
}

// textAtom is the atom of an untyped string: numeric when it parses as one.
func textAtom(s string) atom {
	if t := strings.TrimSpace(s); looksNumeric(t) {
		if f, err := strconv.ParseFloat(t, 64); err == nil {
			return atom{isNum: true, num: f, str: s}
		}
	}
	return atom{str: s}
}

// looksNumeric cheaply rejects strings that cannot parse as numbers, so the
// untyped-comparison path does not pay strconv's allocated error for every
// non-numeric string. It admits everything strconv.ParseFloat accepts,
// including the Inf/NaN spellings.
func looksNumeric(s string) bool {
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case c == '-' || c == '+' || c == '.' || ('0' <= c && c <= '9'):
		return true
	case c == 'i' || c == 'I' || c == 'n' || c == 'N':
		return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") ||
			strings.EqualFold(s, "nan")
	default:
		return false
	}
}

// CompareAtomic applies θ to two atomic (or node) values. Untyped values
// compare numerically when both sides parse as numbers, else as strings.
// It reports false when either side is absent (NULL/empty).
func CompareAtomic(a, b Value, op CmpOp) bool {
	x, okx := toAtom(a)
	y, oky := toAtom(b)
	if !okx || !oky {
		return false
	}
	var c int
	if x.isNum && y.isNum {
		switch {
		case x.num < y.num:
			c = -1
		case x.num > y.num:
			c = 1
		}
	} else {
		c = strings.Compare(x.text(), y.text())
	}
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}

// Compare3 three-way-compares two already-atomized values under
// CompareAtomic's semantics (numeric when both sides parse as numbers, else
// string), with absent (nil/NULL) values ordered first — the single-parse
// comparison the sort operators use.
func Compare3(a, b Value) int {
	x, okx := toAtom(a)
	y, oky := toAtom(b)
	switch {
	case !okx && !oky:
		return 0
	case !okx:
		return -1
	case !oky:
		return 1
	}
	if x.isNum && y.isNum {
		switch {
		case x.num < y.num:
			return -1
		case x.num > y.num:
			return 1
		}
		return 0
	}
	return strings.Compare(x.text(), y.text())
}

// GeneralCompare implements XQuery general comparison semantics: it holds if
// some pair of atomized items from the two operands satisfies θ. This is the
// "simple '=' has existential semantics" rule of Sec. 5.1. Nothing is boxed
// on the way: an item or a flat sequence of items is compared in place
// (CompareAtomic reads a node's string value itself and is false on NULL),
// and only tuple sequences and nested sequences are flattened first.
func GeneralCompare(a, b Value, op CmpOp) bool {
	if isItem(a) && isItem(b) {
		return CompareAtomic(a, b, op)
	}
	var one, other [1]Value
	ys := flatItems(b, &other)
	for _, x := range flatItems(a, &one) {
		for _, y := range ys {
			if CompareAtomic(x, y, op) {
				return true
			}
		}
	}
	return false
}

// flatItems views an operand of a general comparison as a sequence of items:
// an item through the caller's one-element array, a sequence of items as
// itself, anything nested through AppendItems.
func flatItems(v Value, one *[1]Value) Seq {
	if s, ok := v.(Seq); ok {
		for _, item := range s {
			if !isItem(item) {
				return AppendItems(nil, v)
			}
		}
		return s
	}
	if !isItem(v) {
		return AppendItems(nil, v)
	}
	one[0] = v
	return one[:]
}

// isItem reports whether a value atomizes to exactly the sequence the
// single-item comparison path assumes: everything except the sequence kinds
// (Seq flattens, TupleSeq contributes per attribute).
func isItem(v Value) bool {
	switch v.(type) {
	case Seq, TupleSeq, RowSeq:
		return false
	default:
		return true
	}
}

// Member reports whether item a1 is a member of the atomized sequence bound
// to v (the a1 ∈ a2 predicate of Eqvs. 4 and 5).
func Member(a Value, v Value) bool {
	return GeneralCompare(a, v, CmpEq)
}

// Key returns a canonical grouping/join key for a value under the comparison
// semantics of CompareAtomic: numeric values of any lexical form coincide.
// Empty/NULL values map to a distinguished key.
func Key(v Value) string {
	a := AtomizeSingle(v)
	if a == nil {
		return "\x00null"
	}
	at, ok := toAtom(a)
	if !ok {
		return "\x00null"
	}
	if at.isNum {
		n := at.num
		if n == 0 {
			n = 0 // fold -0 into +0, as CompareAtomic and KeyOf do
		}
		return "n:" + strconv.FormatFloat(n, 'g', -1, 64)
	}
	return "s:" + at.str
}

// HashKey is the allocation-free form of Key: a comparable struct usable as
// a Go map key. KeyOf(a) == KeyOf(b) exactly when Key(a) == Key(b).
//
// A HashKey carries up to two columns inline (the second column's fields
// are zero for single-column keys; kind2 is tagged so a two-column key
// never collides with a one-column key). Keys wider than two columns fold
// into a single length-prefixed string — see KeyOfSlots.
type HashKey struct {
	kind byte // 0 null, 'n' numeric, 'N' NaN, 's' string, 'm' multi-column fold
	num  float64
	str  string
	// second column of a composite key (CombineKeys); zero when absent
	kind2 byte
	num2  float64
	str2  string
}

// numKey folds every NaN into one key: NaN != NaN would otherwise make a
// struct key that never matches itself, while Key() renders all NaNs as the
// same "n:NaN" string.
func numKey(f float64) HashKey {
	if f != f {
		return HashKey{kind: 'N'}
	}
	if f == 0 {
		f = 0 // fold -0 into +0, matching CompareAtomic's f == 0 semantics
	}
	return HashKey{kind: 'n', num: f}
}

// FoldKey wraps a pre-folded multi-column key string.
func FoldKey(s string) HashKey { return HashKey{kind: 'm', str: s} }

// compositeTag marks the second column of a two-column composite key:
// kind2 is never zero for a composite, so (x, NULL) cannot collide with
// the single-column key x.
const compositeTag = 0x80

// CombineKeys packs two single-column keys into one composite HashKey
// without allocating — the two-column join/grouping key. Both operands
// must be single-column KeyOf results (not composites or folds).
func CombineKeys(a, b HashKey) HashKey {
	a.kind2 = b.kind | compositeTag
	a.num2 = b.num
	a.str2 = b.str
	return a
}

// KeyOfSlots computes the canonical composite grouping/join key of the
// values at the given slots — the multi-column extension of KeyOf, used by
// every hashing operator of the slot engine. One- and two-column keys
// are allocation-free; wider keys fold the per-column Key strings into one
// length-prefixed string (no separator collisions).
func KeyOfSlots(vals []Value, slots []int) HashKey {
	switch len(slots) {
	case 0:
		return HashKey{}
	case 1:
		return KeyOf(vals[slots[0]])
	case 2:
		return CombineKeys(KeyOf(vals[slots[0]]), KeyOf(vals[slots[1]]))
	}
	var sb strings.Builder
	for _, s := range slots {
		writeFoldCol(&sb, vals[s])
	}
	return FoldKey(sb.String())
}

// KeyOfAttrs is KeyOfSlots for map tuples. Both functions produce the same
// key for the same logical tuple, so the map evaluator and the slot engine
// bucket a hash join's or grouping's input identically.
func KeyOfAttrs(t Tuple, attrs []string) HashKey {
	switch len(attrs) {
	case 0:
		return HashKey{}
	case 1:
		return KeyOf(t[attrs[0]])
	case 2:
		return CombineKeys(KeyOf(t[attrs[0]]), KeyOf(t[attrs[1]]))
	}
	var sb strings.Builder
	for _, a := range attrs {
		writeFoldCol(&sb, t[a])
	}
	return FoldKey(sb.String())
}

func writeFoldCol(sb *strings.Builder, v Value) {
	k := Key(v)
	sb.WriteString(strconv.Itoa(len(k)))
	sb.WriteByte(':')
	sb.WriteString(k)
}

// KeyOf computes the canonical grouping/join key of a value without
// allocating: the hot path of every hash join, grouping and distinct
// operator in the slot engine.
func KeyOf(v Value) HashKey {
	switch w := v.(type) {
	case nil, Null:
		return HashKey{}
	case Bool:
		if bool(w) {
			return HashKey{kind: 'n', num: 1}
		}
		return HashKey{kind: 'n', num: 0}
	case Int:
		return numKey(float64(w))
	case Float:
		return numKey(float64(w))
	case Str:
		return keyOfString(string(w))
	case NodeVal:
		return keyOfString(w.Node.StringValue())
	case Seq:
		// The key of the first item that has one: an atom's key is never the
		// zero HashKey, so zero means "atomizes to nothing, look further".
		for _, item := range w {
			if k := KeyOf(item); k.kind != 0 {
				return k
			}
		}
		return HashKey{}
	default:
		a := AtomizeSingle(v)
		if a == nil {
			return HashKey{}
		}
		return KeyOf(a)
	}
}

func keyOfString(s string) HashKey {
	if t := strings.TrimSpace(s); looksNumeric(t) {
		if f, err := strconv.ParseFloat(t, 64); err == nil {
			return numKey(f)
		}
	}
	return HashKey{kind: 's', str: s}
}

// EffectiveBool computes an effective boolean value: false for NULL, empty
// sequences, false, 0 and ""; true otherwise. Node handles are true
// (existence).
func EffectiveBool(v Value) bool {
	switch w := v.(type) {
	case nil, Null:
		return false
	case Bool:
		return bool(w)
	case Int:
		return w != 0
	case Float:
		return w != 0
	case Str:
		return w != ""
	case NodeVal:
		return true
	case Seq:
		return len(w) > 0
	case TupleSeq:
		return len(w) > 0
	case RowSeq:
		return w.Len() > 0
	default:
		return false
	}
}

// DeepEqual compares two values structurally, with numeric cross-kind
// equality (Int(3) equals Float(3)). Used by tests and by the property-based
// equivalence checks.
func DeepEqual(a, b Value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case Null:
		_, ok := b.(Null)
		return ok
	case Seq:
		y, ok := b.(Seq)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !DeepEqual(x[i], y[i]) {
				return false
			}
		}
		return true
	case TupleSeq:
		switch y := b.(type) {
		case TupleSeq:
			return TupleSeqEqual(x, y)
		case RowSeq:
			// A slot-engine group payload equals the map engine's when the
			// member tuples coincide — the representations are interchangeable.
			return rowSeqEqualTupleSeq(y, x)
		}
		return false
	case RowSeq:
		switch y := b.(type) {
		case TupleSeq:
			return rowSeqEqualTupleSeq(x, y)
		case RowSeq:
			if x.Len() != y.Len() {
				return false
			}
			for i := 0; i < x.Len(); i++ {
				if !rowEqualRow(x.At(i), y.At(i)) {
					return false
				}
			}
			return true
		}
		return false
	case NodeVal:
		y, ok := b.(NodeVal)
		return ok && x.Node == y.Node
	case Bool:
		y, ok := b.(Bool)
		return ok && x == y
	case Str:
		y, ok := b.(Str)
		return ok && x == y
	case Int:
		switch y := b.(type) {
		case Int:
			return x == y
		case Float:
			return float64(x) == float64(y)
		}
		return false
	case Float:
		switch y := b.(type) {
		case Int:
			return float64(x) == float64(y)
		case Float:
			return x == y
		}
		return false
	default:
		return false
	}
}

// rowSeqEqualTupleSeq compares a slot-backed sequence with a map-backed one
// member-wise.
func rowSeqEqualTupleSeq(a RowSeq, b TupleSeq) bool {
	if a.Len() != len(b) {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !rowEqualTuple(a.At(i), b[i]) {
			return false
		}
	}
	return true
}

// rowEqualTuple compares one row with one map tuple: every non-nil slot must
// match an attribute of t, and t must bind nothing else (nil slots are
// absent attributes, like missing map keys).
func rowEqualTuple(r Row, t Tuple) bool {
	present := 0
	for i, v := range r.Vals {
		if v == nil {
			continue
		}
		present++
		w, ok := t[r.Lay.Name(i)]
		if !ok || !DeepEqual(v, w) {
			return false
		}
	}
	return present == len(t)
}

// rowEqualRow compares two rows by attribute-name semantics without
// materializing map tuples: every present (non-nil) slot of a must match
// the same-named binding of b, and b must bind nothing else.
func rowEqualRow(a, b Row) bool {
	present := 0
	for i, v := range a.Vals {
		if v == nil {
			continue
		}
		present++
		w := b.Value(a.Lay.Name(i))
		if w == nil || !DeepEqual(v, w) {
			return false
		}
	}
	for _, v := range b.Vals {
		if v != nil {
			present--
		}
	}
	return present == 0
}

// TupleEqual compares two tuples attribute-wise with DeepEqual.
func TupleEqual(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !DeepEqual(v, w) {
			return false
		}
	}
	return true
}

// TupleSeqEqual compares two ordered tuple sequences.
func TupleSeqEqual(a, b TupleSeq) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !TupleEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
