package nalquery

import (
	"strings"
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/dom"
	"nalquery/internal/value"
)

// TestNodeTextIsAStr: a NodeText — a node's string value read in place — is
// the same string item as the Str of its text to every reader: kind, text,
// serialization, hash key, sort order against other atoms, effective
// boolean value, structural equality both ways, the bag key, and the public
// typed view. The texts include markup characters, numbers, NaN, the text
// "true" and the empty text, as element text and as attribute values.
func TestNodeTextIsAStr(t *testing.T) {
	texts := []string{"", "x", " 7 ", "1e1", "NaN", "true", "-0", `a&b<c"d>`, "Tom & Jerry"}
	b := dom.NewBuilder("t.xml").Begin("r")
	for _, s := range texts {
		b.Begin("a").Attrib("t", s).Text(s).End()
	}
	elems := b.End().Done().Root.Descendants("a", nil)
	probes := []value.Value{value.Str(""), value.Str("x"), value.Str("7"), value.Int(10), value.Float(-1),
		value.Bool(true), value.Str("NaN"), value.Str("a&b")}
	write := func(v value.Value) string {
		var sb strings.Builder
		algebra.WriteValue(&sb, v)
		return sb.String()
	}
	for i, s := range texts {
		for _, n := range []*dom.Node{elems[i], elems[i].Attr("t")} {
			str, nt := value.Value(value.Str(s)), value.Value(value.NodeText{Node: n})
			if nt.Kind() != str.Kind() || nt.String() != s {
				t.Errorf("%q: NodeText is kind %v text %q, Str kind %v", s, nt.Kind(), nt.String(), str.Kind())
			}
			if write(nt) != write(str) || write(nt) != dom.EscapeText(s) {
				t.Errorf("%q: NodeText writes %q, Str %q", s, write(nt), write(str))
			}
			if value.KeyOf(nt) != value.KeyOf(str) {
				t.Errorf("%q: KeyOf NodeText %v, Str %v", s, value.KeyOf(nt), value.KeyOf(str))
			}
			if value.Compare3(nt, str) != 0 || !value.CompareAtomic(nt, str, value.CmpEq) {
				t.Errorf("%q: NodeText and Str do not compare equal", s)
			}
			for _, p := range probes {
				if value.Compare3(nt, p) != value.Compare3(str, p) || value.Compare3(p, nt) != value.Compare3(p, str) {
					t.Errorf("%q: Compare3 against %#v: NodeText %d, Str %d", s, p, value.Compare3(nt, p), value.Compare3(str, p))
				}
			}
			if value.EffectiveBool(nt) != value.EffectiveBool(str) {
				t.Errorf("%q: EffectiveBool NodeText %v, Str %v", s, value.EffectiveBool(nt), value.EffectiveBool(str))
			}
			if !value.DeepEqual(nt, str) || !value.DeepEqual(str, nt) || !value.DeepEqual(nt, nt) {
				t.Errorf("%q: NodeText and Str are not DeepEqual both ways", s)
			}
			if value.DeepKey(nt) != value.DeepKey(str) ||
				!value.TupleSeqEqualBag(value.TupleSeq{{"a": nt}}, value.TupleSeq{{"a": str}}) {
				t.Errorf("%q: bag key NodeText %q, Str %q", s, value.DeepKey(nt), value.DeepKey(str))
			}
			pub, want := Value{v: nt}, Value{v: str}
			if pub.Kind() != KindString || want.Kind() != KindString || pub.String() != want.String() || pub.XML() != want.XML() {
				t.Errorf("%q: public view of NodeText %v %q %q, of Str %v %q %q",
					s, pub.Kind(), pub.String(), pub.XML(), want.Kind(), want.String(), want.XML())
			}
		}
	}
	// Different texts stay different.
	if value.DeepEqual(value.NodeText{Node: elems[1]}, value.Str("y")) ||
		value.DeepEqual(value.Str(""), value.NodeText{Node: elems[1]}) {
		t.Errorf("a NodeText equals the Str of another text")
	}
}
