// Package value defines the data model of the NAL algebra: atomic items,
// node handles, item sequences, tuples (sets of variable bindings) and
// ordered tuple sequences.
//
// NAL works "on sequences of sets of variable bindings, i.e., sequences of
// unordered tuples where every attribute corresponds to a variable" (Sec. 2).
// Attribute values may themselves be item sequences or tuple sequences
// (nested tuples).
package value

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nalquery/internal/dom"
)

// Kind discriminates Value implementations.
type Kind uint8

// Value kinds.
const (
	KNull Kind = iota
	KBool
	KInt
	KFloat
	KString
	KNode
	KSeq      // sequence of items
	KTupleSeq // sequence of tuples (a nested, sequence-valued attribute)
)

// Value is any value an attribute can be bound to.
type Value interface {
	Kind() Kind
	// String renders the value for result construction (Ξ copies string
	// values onto the output stream).
	String() string
}

// Null is the NULL produced by the tuple constructor ⊥A of the left outer
// join.
type Null struct{}

// Bool is a boolean item.
type Bool bool

// Int is an integer item.
type Int int64

// Float is a floating point item (stands in for xs:decimal/xs:double).
type Float float64

// Str is a string item.
type Str string

// NodeVal is a handle to a node of a stored document.
type NodeVal struct{ Node *dom.Node }

// NodeText is a node's string value as a string item: the same value as the
// Str of that text, read in place from the document's text slab. Like
// NodeVal it is one pointer, so it sits in a Value without a box.
type NodeText struct{ Node *dom.Node }

// Seq is an ordered sequence of items.
type Seq []Value

// Kind implementations.
func (Null) Kind() Kind     { return KNull }
func (Bool) Kind() Kind     { return KBool }
func (Int) Kind() Kind      { return KInt }
func (Float) Kind() Kind    { return KFloat }
func (Str) Kind() Kind      { return KString }
func (NodeVal) Kind() Kind  { return KNode }
func (NodeText) Kind() Kind { return KString }
func (Seq) Kind() Kind      { return KSeq }
func (TupleSeq) Kind() Kind { return KTupleSeq }

func (Null) String() string { return "" }

func (b Bool) String() string {
	if bool(b) {
		return "true"
	}
	return "false"
}

func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

// Append appends i.String() to dst without building the string.
func (i Int) Append(dst []byte) []byte { return strconv.AppendInt(dst, int64(i), 10) }

func (f Float) String() string {
	// Integral floats print without a fractional part, like XQuery decimals.
	if f == Float(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(float64(f), 'g', -1, 64)
}

// Append appends f.String() to dst without building the string.
func (f Float) Append(dst []byte) []byte {
	if f == Float(int64(f)) {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	return strconv.AppendFloat(dst, float64(f), 'g', -1, 64)
}

func (s Str) String() string { return string(s) }

func (t NodeText) String() string { return t.Node.StringValue() }

func (n NodeVal) String() string {
	if n.Node == nil {
		return ""
	}
	switch n.Node.Kind() {
	case dom.KindAttribute, dom.KindText:
		return n.Node.Data()
	default:
		return dom.XMLString(n.Node)
	}
}

func (s Seq) String() string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = v.String()
	}
	return strings.Join(parts, " ")
}

// Tuple is a set of variable bindings. The map is the natural Go encoding of
// the paper's unordered tuples.
type Tuple map[string]Value

// TupleSeq is an ordered sequence of tuples — the carrier of every algebraic
// operator.
type TupleSeq []Tuple

func (ts TupleSeq) String() string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// String renders a tuple with sorted attribute names, for debugging and
// deterministic test output.
func (t Tuple) String() string {
	names := make([]string, 0, len(t))
	for k := range t {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteByte('[')
	for i, k := range names {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s: %s", k, renderValue(t[k]))
	}
	sb.WriteByte(']')
	return sb.String()
}

func renderValue(v Value) string {
	switch w := v.(type) {
	case nil:
		return "nil"
	case Null:
		return "NULL"
	case Str, NodeText:
		return strconv.Quote(w.String())
	case TupleSeq:
		return w.String()
	case RowSeq:
		return w.String()
	default:
		return v.String()
	}
}

// EmptyTuple returns the tuple with no attributes — the single element
// produced by the □ operator.
func EmptyTuple() Tuple { return Tuple{} }

// EachValue calls fn with the tuple's attribute values in canonical
// (sorted-name) order — the order Ξ printing, atomization and AsSeq use for
// nested tuples. Single-attribute tuples (nested query results, e[a]
// bindings — the common case) skip the sort entirely.
func (t Tuple) EachValue(fn func(Value)) {
	if len(t) == 1 {
		for _, v := range t {
			fn(v)
		}
		return
	}
	for _, a := range t.Attrs() {
		fn(t[a])
	}
}

// Attrs returns the sorted attribute names of the tuple, i.e. A(t).
func (t Tuple) Attrs() []string {
	names := make([]string, 0, len(t))
	for k := range t {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Copy returns a shallow copy of the tuple.
func (t Tuple) Copy() Tuple {
	out := make(Tuple, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// Concat implements tuple concatenation t ◦ u. Attributes of u win on
// collision (collisions never happen in well-formed plans, where attribute
// sets are disjoint).
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, len(t)+len(u))
	for k, v := range t {
		out[k] = v
	}
	for k, v := range u {
		out[k] = v
	}
	return out
}

// Project returns t restricted to the attributes in attrs (t|A). Missing
// attributes are silently skipped.
func (t Tuple) Project(attrs []string) Tuple {
	out := make(Tuple, len(attrs))
	for _, a := range attrs {
		if v, ok := t[a]; ok {
			out[a] = v
		}
	}
	return out
}

// Drop returns t without the attributes in attrs (the Π-bar operator).
func (t Tuple) Drop(attrs []string) Tuple {
	out := make(Tuple, len(t))
	for k, v := range t {
		out[k] = v
	}
	for _, a := range attrs {
		delete(out, a)
	}
	return out
}

// NullTuple implements the tuple constructor ⊥A: a tuple with every
// attribute in attrs bound to NULL.
func NullTuple(attrs []string) Tuple {
	out := make(Tuple, len(attrs))
	for _, a := range attrs {
		out[a] = Null{}
	}
	return out
}

// Copy returns a copy of the sequence (tuples shared).
func (ts TupleSeq) Copy() TupleSeq {
	out := make(TupleSeq, len(ts))
	copy(out, ts)
	return out
}

// BindSeq implements e[a]: turning a sequence of non-tuple values into a
// sequence of tuples with single attribute a.
func BindSeq(items Seq, a string) TupleSeq {
	out := make(TupleSeq, len(items))
	for i, v := range items {
		out[i] = Tuple{a: v}
	}
	return out
}

// AsSeq coerces a value to an item sequence: a Seq stays itself, a tuple
// sequence contributes its tuples' attribute values in order (the items a
// nested query block returns), any other item becomes a singleton, and Null
// becomes the empty sequence.
func AsSeq(v Value) Seq {
	switch w := v.(type) {
	case nil:
		return nil
	case Null:
		return nil
	case Seq:
		return w
	case TupleSeq:
		var out Seq
		for _, t := range w {
			t.EachValue(func(v Value) { out = append(out, AsSeq(v)...) })
		}
		return out
	case RowSeq:
		var out Seq
		for i := 0; i < w.Len(); i++ {
			w.EachValue(i, func(v Value) { out = append(out, AsSeq(v)...) })
		}
		return out
	default:
		return Seq{v}
	}
}

// Items is AsSeq for a consumer that only iterates: a single item is viewed
// through the caller's one-element array instead of a fresh Seq{v}. The
// result aliases one in that case and is good until one is written again.
func Items(v Value, one *[1]Value) Seq {
	switch v.(type) {
	case nil, Null, Seq, TupleSeq, RowSeq:
		return AsSeq(v)
	}
	one[0] = v
	return one[:]
}

// OfNodes is the value of a path expression, in its one normal form: no node
// is the nil Seq, exactly one node is that NodeVal, several are a Seq of
// NodeVals. The first two box into a Value without allocating (a NodeVal is
// one pointer), which is what a path is almost every time it is evaluated
// once per tuple ($b/title, $b/@year); several cost the backing array and the
// slice header. nodes is read, not kept: the caller's buffer stays its own.
func OfNodes(nodes []*dom.Node) Value {
	switch len(nodes) {
	case 0:
		return Seq(nil)
	case 1:
		return NodeVal{Node: nodes[0]}
	}
	out := make(Seq, len(nodes))
	for i, n := range nodes {
		out[i] = NodeVal{Node: n}
	}
	return out
}
