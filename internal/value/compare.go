package value

import (
	"fmt"
	"math"
	"strings"

	"nalquery/internal/dom"
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

// Atomize converts a value into its sequence of atomic items: nodes become
// their (untyped) string value, read in place (NodeText), sequences atomize
// element-wise, Null yields the empty sequence.
func Atomize(v Value) Seq {
	switch w := v.(type) {
	case nil, Null:
		return nil
	case NodeVal:
		return Seq{NodeText(w)}
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

// AtomizeSingle returns the first atom of v (see atomOf), or nil when v
// atomizes to the empty sequence; a node's atom is its string value as a
// NodeText. The per-tuple consumers (comparison, hash key, the builtins'
// string and number arguments) read the atom in place (CompareAtomic, KeyOf,
// AtomText, Number) and come here only when the atom itself must be kept.
func AtomizeSingle(v Value) Value {
	var a atom
	if !atomOf(v, &a) {
		return nil
	}
	return a.value()
}

// Data is data(v): Atomize(v), except that one atom is that atom, not a
// sequence of it, as a one-member sequence is its item. An item's atom is
// read without atomizing it into a sequence, so data() of one node (a
// NodeText) allocates nothing.
func Data(v Value) Value {
	if isItem(v) {
		if a := AtomizeSingle(v); a != nil {
			return a
		}
	}
	s := Atomize(v)
	if len(s) == 1 {
		return s[0]
	}
	return s
}

// StringOf is string(v): the text of v's first atom as a string item, ""
// when v atomizes to nothing. A node's text is a NodeText and a Str or
// NodeText is itself, so only a typed atom's digits (or "true"/"false")
// are boxed.
func StringOf(v Value) Value {
	var a atom
	switch {
	case !atomOf(v, &a):
		return Str("")
	case a.typed:
		return Str(a.String())
	}
	return a.value()
}

// AtomText is AtomizeSingle(v).String() without boxing the atom: the text of
// the value's first atom, ok=false when it atomizes to the empty sequence.
func AtomText(v Value) (string, bool) {
	var a atom
	if !atomOf(v, &a) {
		return "", false
	}
	return a.String(), true
}

// Number reads the first atom of v as a number under the atom rule (see
// atomOf): ok is false when v atomizes to nothing or its atom is text. The
// number of a Float is the one its text reads back as, so -0 reads as 0.
func Number(v Value) (float64, bool) {
	var a atom
	ok := atomOf(v, &a)
	return a.num, ok && a.isNum
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

// The atom rule. Every reader of an atomic value — comparison, sort order,
// hash key, the builtins' numbers and texts — reads it through atomOf and
// compares through cmpAtoms, so the rule is written once:
//
//   - What is a number. An atom is a number if it is an Int, a Float, a Bool
//     (1 or 0), or text (a Str, a node's string value) that parses as a
//     number once trimmed. Anything else is text.
//   - Comparing numbers. Two numbers compare by value, and -0 equals 0. NaN
//     equals NaN and has no order with any other number: =, <, <=, > and >=
//     are false and != is true. In sort order NaN comes before every other
//     number.
//   - Numbers against text. A number and a text compare by text. A Bool's
//     text for this purpose is "1" or "0", so equality stays an equivalence
//     relation.
//   - Keys. KeyOf(a) == KeyOf(b) exactly when CompareAtomic(a, b, CmpEq)
//     (FuzzCompareAtoms).
type atom struct {
	item  Value  // what the atom was read from: an Int, Float, Bool, Str, NodeText or NodeVal
	text  string // a Str's or a node's text, as read
	num   float64
	isNum bool
	typed bool // item is an Int, Float or Bool: its text is rendered from item
}

// atomOf sets *a to the first atom of v: the item itself, a node's string
// value read in place, or the first atom of a sequence or of a tuple
// sequence's members (their attributes in canonical order). It reports
// false, leaving *a unspecified, when v atomizes to nothing. The caller owns
// a, so reading an atom copies nothing back.
func atomOf(v Value, a *atom) bool {
	switch w := v.(type) {
	case NodeVal:
		nodeAtom(a, v, w.Node)
	case NodeText:
		nodeAtom(a, v, w.Node)
	case Str:
		*a = textAtom(v, string(w))
	case Int:
		*a = atom{item: v, num: float64(w), isNum: true, typed: true}
	case Float:
		*a = atom{item: v, num: float64(w) + 0, isNum: true, typed: true} // -0 prints, and reads back, as 0
	case Bool:
		*a = atom{item: v, isNum: true, typed: true}
		if w {
			a.num = 1
		}
	case nil, Null:
		return false
	default:
		return firstAtom(v, a)
	}
	return true
}

// textAtom is the atom of untyped text: a number when, trimmed, it parses
// as one.
func textAtom(item Value, text string) atom {
	a := atom{item: item, text: text}
	a.num, a.isNum = dom.ParseNumber(text)
	return a
}

// nodeAtom sets *a to the atom of a node's string value, read off its row
// when the document fixed it there (dom.Node.Atom) and parsed otherwise.
func nodeAtom(a *atom, item Value, n *dom.Node) {
	num, _, isNum, known := n.Atom()
	if !known {
		*a = textAtom(item, n.StringValue())
		return
	}
	*a = atom{item: item, text: n.StringValue(), num: num, isNum: isNum}
}

// value is the atom as an item: a node's as its NodeText, any other as the
// item it was read from.
func (a *atom) value() Value {
	if n, isNode := a.item.(NodeVal); isNode {
		return NodeText(n)
	}
	return a.item
}

// firstAtom is atomOf for the sequence kinds.
func firstAtom(v Value, a *atom) bool {
	switch w := v.(type) {
	case Seq:
		for _, item := range w {
			if atomOf(item, a) {
				return true
			}
		}
	case TupleSeq:
		for _, t := range w {
			for _, name := range t.Attrs() {
				if atomOf(t[name], a) {
					return true
				}
			}
		}
	case RowSeq:
		for i := 0; i < w.Len(); i++ {
			r := w.At(i)
			for _, s := range w.Lay().Canon() {
				if atomOf(r.Vals[s], a) {
					return true
				}
			}
		}
	}
	return false
}

// String is the atom's text as its item renders it: a Str's or a node's
// text as read, "true"/"false" for a Bool, a number's digits.
func (a *atom) String() string {
	if !a.typed {
		return a.text
	}
	return a.item.String()
}

// cmpAtoms compares two atoms under the rule: c is their order (NaN first
// among numbers), and ordered is false exactly when one side is NaN and the
// other a different number, where every operator but != is false.
func cmpAtoms(x, y *atom) (c int, ordered bool) {
	if !x.isNum || !y.isNum {
		return strings.Compare(x.cmpText(), y.cmpText()), true
	}
	xNaN, yNaN := x.num != x.num, y.num != y.num
	switch {
	case xNaN && yNaN:
		return 0, true
	case xNaN:
		return -1, false
	case yNaN:
		return 1, false
	case x.num < y.num:
		return -1, true
	case x.num > y.num:
		return 1, true
	}
	return 0, true
}

// cmpText is the text an atom compares by against a text atom: a Bool's is
// "1" or "0".
func (a *atom) cmpText() string {
	if !a.typed {
		return a.text
	}
	if b, ok := a.item.(Bool); ok {
		if b {
			return "1"
		}
		return "0"
	}
	return a.item.String()
}

// CompareAtomic applies θ to the first atoms of two values under the atom
// rule. It reports false when either side is absent (NULL/empty).
func CompareAtomic(a, b Value, op CmpOp) bool {
	var x, y atom
	okx, oky := atomOf(a, &x), atomOf(b, &y)
	if !okx || !oky {
		return false
	}
	c, ordered := cmpAtoms(&x, &y)
	if !ordered {
		return op == CmpNe
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

// Compare3 is the sort order of both evaluators: it three-way-compares the
// first atoms of two values under the atom rule (NaN before every other
// number), with absent (nil/NULL/empty) values ordered first.
func Compare3(a, b Value) int {
	var x, y atom
	okx, oky := atomOf(a, &x), atomOf(b, &y)
	switch {
	case !okx && !oky:
		return 0
	case !okx:
		return -1
	case !oky:
		return 1
	}
	c, _ := cmpAtoms(&x, &y)
	return c
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

// HashKey is the canonical grouping/join key of a value: a comparable struct,
// allocated nowhere. KeyOf(a) == KeyOf(b) exactly when
// CompareAtomic(a, b, CmpEq); every value that atomizes to nothing has the
// zero key. A key of several columns is no value of its own: it is its
// columns, hashed by chaining (HashSlots) and compared column by column
// (SameSlots). A text key carries its text's dom.TextHash beside it, in what
// would be padding, so Hash never walks a string.
type HashKey struct {
	kind byte   // 0 null, 'n' numeric, 'N' NaN, 's' string
	h    uint32 // dom.TextHash(str) for 's', else 0
	num  float64
	str  string
}

// numKey is the key of a number: every NaN is one key (NaN equals NaN under
// the atom rule, but a float field holding it would never match itself),
// and -0 is 0's.
func numKey(f float64) HashKey {
	if f != f {
		return HashKey{kind: 'N'}
	}
	if f == 0 {
		f = 0
	}
	return HashKey{kind: 'n', num: f}
}

// Hash returns a 64-bit hash of the key under seed: equal keys hash equally
// under one seed. The hash decides where a key is looked for, never whether
// it is found — a table keyed by it (KeyTable) confirms every candidate by
// key equality. It mixes the key's number and its text's stored hash (one of
// the two is zero), never its text's bytes.
func (k HashKey) Hash(seed uint64) uint64 {
	return mix64(seed ^ math.Float64bits(k.num) ^ uint64(k.h) ^ uint64(k.kind)<<48)
}

// mix64 is the splitmix64 finalizer: every input bit reaches every output
// bit.
func mix64(h uint64) uint64 {
	h += 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// KeyOf computes the canonical grouping/join key of a value's first atom
// without allocating.
func KeyOf(v Value) HashKey {
	switch w := v.(type) {
	case NodeVal:
		return nodeKey(w.Node)
	case NodeText:
		return nodeKey(w.Node)
	}
	var a atom
	switch {
	case !atomOf(v, &a):
		return HashKey{}
	case a.isNum:
		return numKey(a.num)
	}
	return HashKey{kind: 's', h: dom.TextHash(a.text), str: a.text}
}

// nodeKey is KeyOf of a node's string value: read off its row when the
// document fixed the node's atom (dom.Node.Atom), parsed and hashed
// otherwise.
func nodeKey(n *dom.Node) HashKey {
	num, hash, isNum, known := n.Atom()
	switch {
	case !known:
		return KeyOf(Str(n.StringValue()))
	case isNum:
		return numKey(num)
	}
	return HashKey{kind: 's', h: hash, str: n.StringValue()}
}

// SameKey reports KeyOf(a) == KeyOf(b), the key equality of every hashing
// operator. Two nodes whose document fixed their atoms compare their atom
// words in place, reading their texts' bytes only when the hashes agree.
func SameKey(a, b Value) bool {
	x, xNode := a.(NodeVal)
	y, yNode := b.(NodeVal)
	if xNode && yNode {
		xn, xh, xNum, xKnown := x.Node.Atom()
		yn, yh, yNum, yKnown := y.Node.Atom()
		switch {
		case !xKnown || !yKnown:
		case xNum || yNum:
			return xNum && yNum && (xn == yn || xn != xn && yn != yn) // -0 is 0, NaN is NaN
		default:
			return xh == yh && x.Node.StringValue() == y.Node.StringValue()
		}
	}
	return KeyOf(a) == KeyOf(b)
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
	case NodeText:
		return w.Node.StringValue() != ""
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
// equality (Int(3) equals Float(3)) and NaN equal to NaN. Used by tests and
// by the property-based equivalence checks.
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
	case Str, NodeText:
		// A Str and a NodeText are the same string item when their texts are.
		switch y := b.(type) {
		case Str, NodeText:
			return x.String() == y.String()
		}
		return false
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
			return x == y || x != x && y != y // a NaN is the same value as a NaN
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
