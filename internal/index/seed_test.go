package index

import (
	"reflect"
	"strconv"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
)

// TestSlotCollidingKeysStaySpread: keys picked offline to share a home slot
// under a fixed hash seed — here the constant 0x6e616c7175657279 — do not
// share one in a value layer, whose keys hash under the process's seed. The
// keys are 512 texts whose hashes under that constant agree in their low 10
// bits, the home slot of a 1 024-slot table; they enter as an uploaded
// document does, through Build. Under the constant they would form one run
// of 512 occupied slots, 130 816 slots of displacement. The test reads the
// slots alone: a key sits in the run of occupied slots that holds its home
// slot, at or after it, so a run of length L holds at most L(L-1)/2 slots of
// displacement, and the sum over runs bounds the total. Under random seeds
// that sum was 660–2 105 over 2 600 layers (median about 1 000); the test
// allows eight slots a key, 4 096.
func TestSlotCollidingKeysStaySpread(t *testing.T) {
	const keys, mask, fixed = 512, 1023, 0x6e616c7175657279
	home := func(s string) uint64 { return value.KeyOf(value.Str(s)).Hash(fixed) & mask }
	var texts []string
	want := home("t0")
	for i := 0; len(texts) < keys; i++ {
		if s := "t" + strconv.Itoa(i); home(s) == want {
			texts = append(texts, s)
		}
	}
	bld := dom.NewBuilder("collide.xml").Begin("r")
	for _, s := range texts {
		bld.Begin("e").Attrib("v", s).Text(s).End()
	}
	d := bld.End().Done()
	layers := 0
	for _, px := range Build(d).Paths {
		if !px.HasValues {
			continue
		}
		layers++
		slots := px.vals.slots
		if len(slots) != mask+1 {
			t.Fatalf("%s: %d slots, the keys were picked for %d", px.Path, len(slots), mask+1)
		}
		// Start past an empty slot, so no run wraps around the end.
		start := 0
		for slots[start] != 0 {
			start++
		}
		bound, run := 0, 0
		for i := 1; i <= len(slots); i++ {
			if slots[(start+i)%len(slots)] != 0 {
				run++
				continue
			}
			bound += run * (run - 1) / 2
			run = 0
		}
		if bound > 8*keys {
			t.Errorf("%s: runs of occupied slots allow %d slots of displacement for %d keys, want at most %d",
				px.Path, bound, keys, 8*keys)
		}
	}
	if layers != 2 {
		t.Fatalf("%d value layers, want the element's and the attribute's", layers)
	}
}

// TestValueLayerPinsNothing: a value layer and a key table hold no pointer
// but their own arrays' headers, and those arrays hold none, so a resident
// index gives the collector nothing to trace and a breaker's spare key table
// keeps nothing else alive.
func TestValueLayerPinsNothing(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(values{}), reflect.TypeOf(value.KeyTable{})} {
		if path, ok := pointerFree(typ, typ.String()); !ok {
			t.Errorf("%s holds a pointer at %s", typ, path)
		}
	}
}

// pointerFree reports whether a value of type typ refers to no memory but
// the arrays of its slices, whose elements are themselves pointer-free; path
// names the first field that fails.
func pointerFree(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", true
	case reflect.Slice, reflect.Array:
		return pointerFree(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerFree(f.Type, path+"."+f.Name); !ok {
				return p, false
			}
		}
		return "", true
	}
	return path + " (" + typ.String() + ")", false
}
