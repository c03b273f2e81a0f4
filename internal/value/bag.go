package value

import (
	"sort"
	"strconv"
	"strings"
)

// Bag (multiset) comparison of tuple sequences: the correctness notion of
// the unordered algebra the paper builds on (the object-oriented algebra of
// Cluet/Moerkotte, refs. [9, 10]). The differential tests assert it beside
// sequence equality, so a failure says whether order or content moved.

// DeepKey renders a value as a canonical string such that two values compare
// DeepEqual exactly when their keys coincide. Numbers of any lexical form
// canonicalize (Int(3) and Float(3) share a key); tuples serialize in
// attribute-name order; node handles key on their document-order rank and
// name (unique within one document).
func DeepKey(v Value) string {
	var sb strings.Builder
	deepKey(v, &sb)
	return sb.String()
}

func deepKey(v Value, sb *strings.Builder) {
	switch w := v.(type) {
	case nil:
		sb.WriteString("_")
	case Null:
		sb.WriteString("0:")
	case Bool:
		sb.WriteString("b:")
		sb.WriteString(strconv.FormatBool(bool(w)))
	case Int:
		sb.WriteString("n:")
		sb.WriteString(strconv.FormatFloat(float64(w), 'g', -1, 64))
	case Float:
		sb.WriteString("n:")
		sb.WriteString(strconv.FormatFloat(float64(w), 'g', -1, 64))
	case Str, NodeText:
		sb.WriteString("s:")
		sb.WriteString(strconv.Quote(w.String()))
	case NodeVal:
		sb.WriteString("N:")
		if w.Node != nil {
			sb.WriteString(strconv.Itoa(w.Node.Order()))
			sb.WriteByte(':')
			sb.WriteString(w.Node.Name())
		}
	case Seq:
		sb.WriteString("[")
		for _, x := range w {
			deepKey(x, sb)
			sb.WriteByte(',')
		}
		sb.WriteString("]")
	case TupleSeq:
		sb.WriteString("{")
		for _, t := range w {
			tupleKey(t, sb)
			sb.WriteByte(',')
		}
		sb.WriteString("}")
	case RowSeq:
		// Identical rendering to the TupleSeq case for the same logical
		// members, so the two payload representations share a key space.
		sb.WriteString("{")
		for i := 0; i < w.Len(); i++ {
			rowMemberKey(w, i, sb)
			sb.WriteByte(',')
		}
		sb.WriteString("}")
	default:
		sb.WriteString("?:")
		sb.WriteString(v.String())
	}
}

// rowMemberKey renders member i of a row sequence exactly like tupleKey
// renders the equivalent map tuple: canonical attribute order, nil slots
// (absent attributes) skipped.
func rowMemberKey(rs RowSeq, i int, sb *strings.Builder) {
	r := rs.At(i)
	sb.WriteString("(")
	for _, s := range rs.Lay().Canon() {
		v := r.Vals[s]
		if v == nil {
			continue
		}
		sb.WriteString(rs.Lay().Name(s))
		sb.WriteByte('=')
		deepKey(v, sb)
		sb.WriteByte(';')
	}
	sb.WriteString(")")
}

func tupleKey(t Tuple, sb *strings.Builder) {
	attrs := t.Attrs()
	sort.Strings(attrs)
	sb.WriteString("(")
	for _, a := range attrs {
		sb.WriteString(a)
		sb.WriteByte('=')
		deepKey(t[a], sb)
		sb.WriteByte(';')
	}
	sb.WriteString(")")
}

// TupleSeqEqualBag reports whether two tuple sequences contain the same
// tuples with the same multiplicities, regardless of order.
func TupleSeqEqualBag(a, b TupleSeq) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[string]int, len(a))
	for _, t := range a {
		var sb strings.Builder
		tupleKey(t, &sb)
		counts[sb.String()]++
	}
	for _, t := range b {
		var sb strings.Builder
		tupleKey(t, &sb)
		k := sb.String()
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}
