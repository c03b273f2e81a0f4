package value

import (
	"math"
	"math/rand"
	"testing"
)

// Properties of the composite HashKey scheme (KeyOfSlots) the row engine's
// hash joins and groupings build on.

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

// TestKeyOfSlotsMatchesPerColumnKeys: composite keys are equal exactly
// when every column's KeyOf is equal — at widths 1, 2 (inline composite)
// and 3 and 4 (string fold).
func TestKeyOfSlotsMatchesPerColumnKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for width := 1; width <= 4; width++ {
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
			gotEq := KeyOfSlots(a, slots) == KeyOfSlots(b, slots)
			if gotEq != wantEq {
				t.Fatalf("width %d: KeyOfSlots equality %v, per-column %v (%v vs %v)",
					width, gotEq, wantEq, a, b)
			}
		}
	}
}

// TestCompositeKeyNoCrossWidthCollision: a two-column key never equals a
// one-column key, even when the second column is NULL.
func TestCompositeKeyNoCrossWidthCollision(t *testing.T) {
	single := KeyOf(Int(1))
	composite := CombineKeys(KeyOf(Int(1)), KeyOf(nil))
	if single == composite {
		t.Fatalf("(1) and (1, NULL) collide")
	}
	if CombineKeys(KeyOf(Int(1)), KeyOf(Int(2))) == CombineKeys(KeyOf(Int(2)), KeyOf(Int(1))) {
		t.Fatalf("(1,2) and (2,1) collide")
	}
}
