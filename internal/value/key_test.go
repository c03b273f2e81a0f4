package value

import (
	"math"
	"math/rand"
	"testing"
)

// Properties of the key of several columns (HashSlots, SameSlots) the row
// engine's hash joins and groupings build on.

func randVal(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Int(int64(rng.Intn(5)))
	case 1:
		return Float([]float64{0, 1, 3, 10, math.NaN()}[rng.Intn(5)])
	case 2:
		return Str([]string{"a", "b", "3", " 3 ", "", "NaN", "1e1", "10", "true", "1:a"}[rng.Intn(10)])
	case 3:
		return Null{}
	case 4:
		return Bool(rng.Intn(2) == 1)
	default:
		return nil
	}
}

// TestSlotKeysMatchPerColumnKeys: keys of several columns are the same
// exactly when every column's KeyOf is equal, and then hash alike — at
// widths 0 to 5.
func TestSlotKeysMatchPerColumnKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for width := 0; width <= 5; width++ {
		slots := make([]int, width)
		for i := range slots {
			slots[i] = i
		}
		for iter := 0; iter < 2000; iter++ {
			a := make([]Value, width)
			b := make([]Value, width)
			for i := 0; i < width; i++ {
				a[i] = randVal(rng)
				b[i] = randVal(rng)
			}
			wantEq := true
			for i := 0; i < width; i++ {
				if KeyOf(a[i]) != KeyOf(b[i]) {
					wantEq = false
				}
			}
			gotEq := SameSlots(a, slots, b, slots)
			if gotEq != wantEq {
				t.Fatalf("width %d: SameSlots %v, per-column %v (%v vs %v)", width, gotEq, wantEq, a, b)
			}
			if gotEq && HashSlots(a, slots) != HashSlots(b, slots) {
				t.Fatalf("width %d: %v and %v are one key, but hash apart", width, a, b)
			}
		}
	}
}

// TestCompositeKeyNoCrossWidthCollision: a NULL column still adds a round to
// a key's hash, so (1) and (1, NULL) hash apart, and columns compare in
// order, so (1, 2) and (2, 1) are different keys.
func TestCompositeKeyNoCrossWidthCollision(t *testing.T) {
	one := []Value{Int(1), Null{}}
	if HashSlots(one, []int{0}) == HashSlots(one, []int{0, 1}) {
		t.Fatalf("(1) and (1, NULL) hash alike")
	}
	if SameSlots([]Value{Int(1), Int(2)}, []int{0, 1}, []Value{Int(2), Int(1)}, []int{0, 1}) {
		t.Fatalf("(1,2) and (2,1) are one key")
	}
}
