package algebra

import (
	"math/rand"
	"testing"

	"nalquery/internal/value"
)

// These tests pin the contract for the operators added after the original
// engine: RunIter must agree with Eval exactly.

// TestIterMatchesEvalNewOps: Sort (with directions) agrees across engines;
// the hash-family operators are differential-tested in
// hash_rows_test.go.
func TestIterMatchesEvalNewOps(t *testing.T) {
	quickCheck(t, "iter=eval-new-ops", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		op := Sort{In: randRel(rng, []string{"A1", "C"}, 8, 3), By: []string{"A1", "C"}, Dirs: []bool{true, false}}
		return value.TupleSeqEqual(op.Eval(NewCtx(nil), nil), RunIter(native(op), NewCtx(nil), nil))
	})
}

// TestIterUnnestMapPositions: the streaming Υ assigns the same positions as
// the materialized one.
func TestIterUnnestMapPositions(t *testing.T) {
	in := constOp{
		ts: value.TupleSeq{
			{"s": value.Seq{value.Str("a"), value.Str("b")}},
			{"s": value.Seq{}},
			{"s": value.Seq{value.Str("c")}},
		},
		attrs: []string{"s"},
	}
	op := UnnestMap{In: in, Attr: "x", PosAttr: "i", E: Var{Name: "s"}}
	want := op.Eval(NewCtx(nil), nil)
	got := RunIter(native(op), NewCtx(nil), nil)
	if !value.TupleSeqEqual(want, got) {
		t.Fatalf("iterator Υ with positions differs:\n%v\nvs\n%v", got, want)
	}
	if len(want) != 3 {
		t.Fatalf("got %d tuples, want 3", len(want))
	}
	wantPos := []int64{1, 2, 1}
	for i, p := range wantPos {
		if int64(want[i]["i"].(value.Int)) != p {
			t.Errorf("tuple %d: position %v, want %d", i, want[i]["i"], p)
		}
	}
}
