package nalquery

import (
	"strings"

	"nalquery/internal/algebra"
	"nalquery/internal/value"
)

// ValueKind discriminates the typed views a result Value offers.
type ValueKind uint8

// Value kinds: the empty sequence, the four atomic types, document nodes
// and (possibly nested) sequences.
const (
	KindEmpty ValueKind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindNode
	KindSequence
)

func (k ValueKind) String() string {
	switch k {
	case KindEmpty:
		return "empty"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindNode:
		return "node"
	case KindSequence:
		return "sequence"
	default:
		return "unknown"
	}
}

// Item is one element of a query's result-construction stream: either a
// literal markup fragment of an element constructor (e.g. "<t>" or "</t>")
// or the typed value of an embedded expression. Serializing the items of a
// run in order yields the same bytes as Results.WriteXML called first;
// consuming Value items directly skips serialization altogether.
type Item struct {
	markup string
	v      value.Value
	isVal  bool
}

// IsValue reports whether the item carries a typed value (as opposed to a
// literal markup fragment).
func (it Item) IsValue() bool { return it.isVal }

// Markup returns the literal markup fragment, or "" for value items.
func (it Item) Markup() string {
	if it.isVal {
		return ""
	}
	return it.markup
}

// Value returns the typed value view of the item. Markup items view as the
// empty value.
func (it Item) Value() Value {
	if !it.isVal {
		return Value{}
	}
	return Value{v: it.v}
}

// XML returns the serialized form of the item — the exact bytes the item
// contributes to the query's constructed output.
func (it Item) XML() string {
	if !it.isVal {
		return it.markup
	}
	var sb strings.Builder
	it.writeTo(&sb)
	return sb.String()
}

// String returns the serialized form (same as XML), so items print
// naturally.
func (it Item) String() string { return it.XML() }

// writeTo streams the item's serialized form into sw using the engine's
// result-construction serializer, guaranteeing byte equality with the
// serialize-while-executing path.
func (it Item) writeTo(sw algebra.StringWriter) {
	if !it.isVal {
		sw.WriteString(it.markup)
		return
	}
	algebra.WriteValue(sw, it.v)
}

// Value is the exported typed view over the engine's data model: the empty
// sequence, atomic items (bool, int, float, string), document nodes, and
// sequences of those. A sequence of exactly one item is that item, as in
// XDM: Kind, the item accessors and Items answer for the value, whichever
// way the engine happened to represent it.
type Value struct{ v value.Value }

// item is the value with a one-member sequence seen through: what it is,
// not how a producer wrapped it. Tuple sequences are left alone — a nested
// block's one tuple is a sequence of its attribute values.
func (v Value) item() value.Value {
	w := v.v
	for {
		s, ok := w.(value.Seq)
		if !ok || len(s) != 1 {
			return w
		}
		w = s[0]
	}
}

// Kind discriminates the value. Zero-length sequences report KindEmpty:
// XQuery does not distinguish the empty sequence from "no value".
func (v Value) Kind() ValueKind {
	switch w := v.item().(type) {
	case nil, value.Null:
		return KindEmpty
	case value.Bool:
		return KindBool
	case value.Int:
		return KindInt
	case value.Float:
		return KindFloat
	case value.Str, value.NodeText:
		return KindString
	case value.NodeVal:
		if w.Node == nil {
			return KindEmpty
		}
		return KindNode
	case value.Seq:
		if len(w) == 0 {
			return KindEmpty
		}
		return KindSequence
	case value.TupleSeq:
		if len(w) == 0 {
			return KindEmpty
		}
		return KindSequence
	case value.RowSeq:
		if w.Len() == 0 {
			return KindEmpty
		}
		return KindSequence
	default:
		return KindEmpty
	}
}

// String returns the XPath-style string value: atomic items literally,
// nodes their concatenated descendant text, sequences the space-joined
// string values of their members, and the empty sequence "".
func (v Value) String() string {
	switch w := v.v.(type) {
	case nil, value.Null:
		return ""
	case value.NodeVal:
		if w.Node == nil {
			return ""
		}
		return w.Node.StringValue()
	case value.Seq, value.TupleSeq, value.RowSeq:
		members := v.Items()
		parts := make([]string, len(members))
		for i, m := range members {
			parts[i] = m.String()
		}
		return strings.Join(parts, " ")
	default:
		return v.v.String()
	}
}

// XML returns the serialized form of the value, exactly as it would appear
// in the query's constructed output.
func (v Value) XML() string {
	var sb strings.Builder
	algebra.WriteValue(&sb, v.v)
	return sb.String()
}

// Bool returns the boolean item, reporting ok=false for any other kind.
func (v Value) Bool() (b, ok bool) {
	if w, isb := v.item().(value.Bool); isb {
		return bool(w), true
	}
	return false, false
}

// Int returns the integer item (widening is not attempted), reporting
// ok=false for any other kind.
func (v Value) Int() (int64, bool) {
	if w, isi := v.item().(value.Int); isi {
		return int64(w), true
	}
	return 0, false
}

// Float returns the numeric item as float64 — Float directly, Int widened
// — reporting ok=false for non-numeric kinds.
func (v Value) Float() (float64, bool) {
	switch w := v.item().(type) {
	case value.Float:
		return float64(w), true
	case value.Int:
		return float64(w), true
	}
	return 0, false
}

// NodeName returns the element or attribute name of a node value, and ""
// for every other kind (or unnamed node kinds like text).
func (v Value) NodeName() string {
	if w, isn := v.item().(value.NodeVal); isn && w.Node != nil {
		return w.Node.Name()
	}
	return ""
}

// Items returns the members of the value viewed as a sequence, in the
// order serialization visits them: sequences yield their items, nested
// tuple sequences yield each tuple's values, a scalar yields itself as a
// one-element sequence, and the empty sequence yields nil.
func (v Value) Items() []Value {
	switch w := v.item().(type) {
	case nil, value.Null:
		return nil
	case value.NodeVal:
		if w.Node == nil {
			return nil
		}
		return []Value{{v: w}}
	case value.Seq:
		out := make([]Value, len(w))
		for i, m := range w {
			out[i] = Value{v: m}
		}
		return out
	case value.TupleSeq:
		var out []Value
		for _, t := range w {
			t.EachValue(func(m value.Value) { out = append(out, Value{v: m}) })
		}
		return out
	case value.RowSeq:
		var out []Value
		for i := 0; i < w.Len(); i++ {
			w.EachValue(i, func(m value.Value) { out = append(out, Value{v: m}) })
		}
		return out
	default:
		return []Value{{v: w}}
	}
}
