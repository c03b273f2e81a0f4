package value

import (
	"testing"
	"unsafe"
)

// The RowSeq/TupleSeq contract: the two representations of one logical
// tuple sequence are indistinguishable to every observer — DeepEqual,
// DeepKey, atomization, effective boolean value — including members with
// absent attributes (nil slots vs missing map keys).

func testSeqPair() (RowSeq, TupleSeq) {
	lay := NewLayout("b", "a") // slot order ≠ canonical order
	flat := []Value{
		Str("x"), Int(1),
		nil, Int(2), // b absent
	}
	ts := TupleSeq{
		{"a": Int(1), "b": Str("x")},
		{"a": Int(2)},
	}
	return RowSeqOfFlat(lay, flat), ts
}

func TestRowSeqDeepEqualAcrossRepresentations(t *testing.T) {
	rs, ts := testSeqPair()
	if !DeepEqual(rs, ts) || !DeepEqual(ts, rs) {
		t.Fatalf("RowSeq and TupleSeq of the same members must be DeepEqual")
	}
	other := TupleSeq{{"a": Int(1), "b": Str("x")}, {"a": Int(2), "b": Null{}}}
	if DeepEqual(rs, other) {
		t.Fatalf("absent attribute must not equal NULL binding")
	}
}

func TestRowSeqDeepKeyMatchesTupleSeq(t *testing.T) {
	rs, ts := testSeqPair()
	if DeepKey(rs) != DeepKey(ts) {
		t.Fatalf("DeepKey differs:\nrow:   %s\ntuple: %s", DeepKey(rs), DeepKey(ts))
	}
}

func TestRowSeqAtomizeCanonicalOrder(t *testing.T) {
	rs, ts := testSeqPair()
	if !DeepEqual(Atomize(rs), Atomize(ts)) {
		t.Fatalf("atomization differs: %v vs %v", Atomize(rs), Atomize(ts))
	}
	if AtomizeSingle(rs) == nil || !DeepEqual(AtomizeSingle(rs), AtomizeSingle(ts)) {
		t.Fatalf("AtomizeSingle differs")
	}
}

func TestBindRowSeqSharesBacking(t *testing.T) {
	items := Seq{Int(1), Str("two")}
	rs := BindRowSeqLay(NewLayout("x"), items)
	if rs.Len() != 2 {
		t.Fatalf("Len = %d", rs.Len())
	}
	if &items[0] != &rs.At(0).Vals[0] {
		t.Fatalf("e[a] backing must alias the item sequence")
	}
	if !DeepEqual(rs, TupleSeq{{"x": Int(1)}, {"x": Str("two")}}) {
		t.Fatalf("BindRowSeqLay members differ from BindSeq semantics")
	}
}

// TestRowKeyReadsEverySlot: the µD member key, the key of every slot of
// the layout in canonical order, reads an absent slot as NULL, so rows that
// differ only in which slot is absent key apart — at widths 2 and 3.
func TestRowKeyReadsEverySlot(t *testing.T) {
	for _, names := range [][]string{{"a", "b"}, {"a", "b", "c"}} {
		lay := NewLayout(names...)
		first, last := make([]Value, len(names)), make([]Value, len(names))
		first[0], last[len(names)-1] = Str("x"), Str("x")
		if SameSlots(first, lay.Canon(), last, lay.Canon()) {
			t.Errorf("%v: %v and %v key alike", names, first, last)
		}
	}
}

func TestRowSeqEffectiveBoolAndEmpty(t *testing.T) {
	lay := NewLayout("a")
	empty := RowSeqOfFlat(lay, nil)
	if EffectiveBool(empty) {
		t.Fatalf("empty RowSeq must be false")
	}
	if !DeepEqual(empty, TupleSeq{}) {
		t.Fatalf("empty RowSeq must equal empty TupleSeq")
	}
}

// TestRowSeqIsFiveWords: a RowSeq is its layout pointer, one flat backing and
// its member count — 40 bytes on a 64-bit platform, so the box that holds one
// in a Value is of the 48-byte size class. A second backing would not fit.
func TestRowSeqIsFiveWords(t *testing.T) {
	if got, want := unsafe.Sizeof(RowSeq{}), 5*unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("a RowSeq is %d bytes, want %d", got, want)
	}
}
