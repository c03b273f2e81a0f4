package value

import (
	"math"
	"testing"

	"nalquery/internal/dom"
)

// A path value has one normal form — no node the nil Seq, one node that
// NodeVal, several a Seq — and every reader of values must give an item and
// the one-member sequence holding it the same answer, or the form a producer
// chose would show in results.

func TestOfNodesNormalForm(t *testing.T) {
	nodes := textNodes(t)
	if got, ok := OfNodes(nil).(Seq); !ok || got != nil {
		t.Errorf("no node: %#v, want the nil Seq", OfNodes(nil))
	}
	if got, ok := OfNodes(nodes[:0]).(Seq); !ok || got != nil {
		t.Errorf("an empty buffer: %#v, want the nil Seq", OfNodes(nodes[:0]))
	}
	if got := OfNodes(nodes[2:3]); got != (NodeVal{Node: nodes[2]}) {
		t.Errorf("one node: %#v, want the node itself", got)
	}
	got, ok := OfNodes(nodes).(Seq)
	if !ok || len(got) != len(nodes) {
		t.Fatalf("several nodes: %#v, want a Seq of %d", OfNodes(nodes), len(nodes))
	}
	// It does not keep the caller's buffer.
	want := append([]*dom.Node(nil), nodes...)
	clear(nodes)
	for i, n := range want {
		if got[i] != (NodeVal{Node: n}) {
			t.Errorf("several nodes: item %d is %v after the buffer was reused, want %v", i, got[i], n)
		}
	}

	if allocs := testing.AllocsPerRun(100, func() { sinkValue = OfNodes(want[:1]) }); allocs != 0 {
		t.Errorf("one node: %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkValue = OfNodes(want[:0]) }); allocs != 0 {
		t.Errorf("no node: %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkValue = OfNodes(want) }); allocs != 2 {
		t.Errorf("several nodes: %.0f allocations, want 2 (the items and the boxed header)", allocs)
	}
}

var sinkValue Value

// TestItemsViewsOneItemInPlace: Items is AsSeq, except that a single item
// is seen through the caller's array instead of a fresh sequence.
func TestItemsViewsOneItemInPlace(t *testing.T) {
	nodes := textNodes(t)
	node := NodeVal{Node: nodes[0]}
	lay := NewLayout("a")
	var one [1]Value
	for _, v := range []Value{nil, Null{}, node, Int(3), Str(""), Bool(false),
		Seq(nil), Seq{}, Seq{node}, Seq{Int(1), node}, Seq{Seq{node}},
		TupleSeq{{"a": node}, {"a": Seq{Int(1), Int(2)}}}, BindRowSeqLay(lay, Seq{node, Int(2)})} {
		got, want := Items(v, &one), AsSeq(v)
		if !DeepEqual(got, want) {
			t.Errorf("Items(%#v) = %#v, AsSeq gives %#v", v, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Items(node, &one) }); allocs != 0 {
		t.Errorf("Items of one item: %.0f allocations, want 0", allocs)
	}
}

// TestOneMemberSequenceReadsAsItsItem: x and Seq{x} are indistinguishable to
// comparison, membership, keys, atomization and the effective boolean value.
//
// The items are those a path or a one-item producer yields and that are
// true: EffectiveBool of a non-empty sequence is true whatever it holds
// (boolean((0)) is pinned true in internal/algebra's TestBooleanFn), so 0,
// "" and false are not in the table. A path value is never an atom.
func TestOneMemberSequenceReadsAsItsItem(t *testing.T) {
	nodes := textNodes(t)
	items := []Value{
		NodeVal{Node: nodes[0]}, NodeVal{Node: nodes[1]}, NodeVal{Node: nodes[2]}, NodeVal{Node: nodes[4]},
		NodeVal{Node: nodes[5]}, // an attribute
		Str("abc"), Str("1"), Str(" 1.0 "), Int(1), Int(7), Float(1.5), Float(math.Inf(1)), Bool(true),
	}
	others := append([]Value{nil, Null{}, Seq(nil), Seq{Int(1), Str("abc")},
		TupleSeq{{"a": Str("x")}, {"a": Int(1)}}}, items...)
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	for _, x := range items {
		for _, sx := range []Value{Seq{x}, Seq{Seq{x}}} {
			for _, y := range others {
				for _, op := range ops {
					if GeneralCompare(x, y, op) != GeneralCompare(sx, y, op) || GeneralCompare(y, x, op) != GeneralCompare(y, sx, op) {
						t.Errorf("GeneralCompare(%#v, %#v, %v) depends on the wrapping %#v", x, y, op, sx)
					}
				}
				if Member(x, y) != Member(sx, y) || Member(y, x) != Member(y, sx) {
					t.Errorf("Member(%#v, %#v) depends on the wrapping %#v", x, y, sx)
				}
				vals, wrapped := []Value{x, y, Int(9)}, []Value{sx, y, Int(9)}
				for _, slots := range [][]int{{0}, {0, 1}, {1, 0}, {0, 1, 2}} {
					if !SameSlots(vals, slots, wrapped, slots) || HashSlots(vals, slots) != HashSlots(wrapped, slots) {
						t.Errorf("the key at %v of %#v depends on the wrapping %#v", slots, vals, sx)
					}
				}
			}
			if KeyOf(x) != KeyOf(sx) || !SameKey(x, sx) {
				t.Errorf("KeyOf(%#v) = %v, of %#v %v", x, KeyOf(x), sx, KeyOf(sx))
			}
			f, ok := Number(x)
			if sf, sok := Number(sx); f != sf || ok != sok {
				t.Errorf("Number(%#v) = %v,%v, of %#v %v,%v", x, f, ok, sx, sf, sok)
			}
			if EffectiveBool(x) != EffectiveBool(sx) {
				t.Errorf("EffectiveBool(%#v) = %v, of %#v %v", x, EffectiveBool(x), sx, EffectiveBool(sx))
			}
			if a, b := AtomizeSingle(x), AtomizeSingle(sx); !DeepEqual(a, b) {
				t.Errorf("AtomizeSingle(%#v) = %#v, of %#v %#v", x, a, sx, b)
			}
			if a, b := Atomize(x), Atomize(sx); !DeepEqual(a, b) {
				t.Errorf("Atomize(%#v) = %#v, of %#v %#v", x, a, sx, b)
			}
			sa, oka := AtomText(x)
			sb, okb := AtomText(sx)
			if sa != sb || oka != okb {
				t.Errorf("AtomText(%#v) = %q,%v, of %#v %q,%v", x, sa, oka, sx, sb, okb)
			}
			if a, b := AppendItems(nil, x), AppendItems(nil, sx); !DeepEqual(a, b) {
				t.Errorf("AppendItems(%#v) = %#v, of %#v %#v", x, a, sx, b)
			}
			if a, b := AsSeq(x), AsSeq(Seq{x}); !DeepEqual(a, b) {
				t.Errorf("AsSeq(%#v) = %#v, of its one-member sequence %#v", x, a, b)
			}
		}
	}
}
