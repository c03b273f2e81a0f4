package value

import (
	"strconv"
	"testing"
)

// keysOf is n keys, one string and one number per i, with every second one
// repeating an earlier i.
func keysOf(n int) (keys []HashKey, distinct []HashKey) {
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		j := i
		if i%2 == 1 {
			j = i / 2
		}
		k := KeyOf(Str("k" + strconv.Itoa(j)))
		if j%3 == 0 {
			k = CombineKeys(KeyOf(Int(int64(j))), KeyOf(Str("x")))
		}
		keys = append(keys, k)
		if !seen[j] {
			seen[j] = true
			distinct = append(distinct, k)
		}
	}
	return keys, distinct
}

// checkTable inserts keys and holds the table to first-occurrence
// numbering: ids follow the order keys first appear, Keys lists them so,
// Find agrees with Insert, and the slots stay at most half full.
func checkTable(t *testing.T, name string, tab *KeyTable, keys, distinct []HashKey) {
	t.Helper()
	next := int32(0)
	for _, k := range keys {
		g, added := tab.Insert(k)
		if added != (g == next) || g > next {
			t.Fatalf("%s: %v got id %d (added %v), next new id is %d", name, k, g, added, next)
		}
		if added {
			next++
		}
		if f := tab.Find(k); f != g {
			t.Fatalf("%s: Find(%v) = %d, Insert said %d", name, k, f, g)
		}
	}
	if len(tab.keys) != len(distinct) {
		t.Fatalf("%s: %d keys, want %d", name, len(tab.keys), len(distinct))
	}
	for g, k := range distinct {
		if f := tab.Find(k); f != int32(g) {
			t.Fatalf("%s: key %v has id %d, want %d (first occurrence order)", name, k, f, g)
		}
	}
	if n := len(tab.Slots()); n&(n-1) != 0 || 2*len(tab.keys) > n {
		t.Fatalf("%s: %d slots for %d keys", name, n, len(tab.keys))
	}
	if tab.Find(KeyOf(Str("absent"))) != -1 {
		t.Fatalf("%s: found a key never inserted", name)
	}
}

// TestKeyTable: a table sized for one key grows as keys come, under the
// default hash and under one that hashes every key alike; a reuse after a
// larger use clears only the slots its own hint needs, and still answers
// exactly; Release leaves no key behind.
func TestKeyTable(t *testing.T) {
	keys, distinct := keysOf(600)
	for _, tc := range []struct {
		name string
		hash func(HashKey) uint64
	}{
		{"default hash", nil},
		{"degenerate hash", func(HashKey) uint64 { return 7 }},
	} {
		tab := KeyTable{Hash: tc.hash}
		if tab.Find(distinct[0]) != -1 {
			t.Fatalf("%s: the zero table found a key", tc.name)
		}
		tab.Reset(1)
		checkTable(t, tc.name+", hint 1", &tab, keys, distinct)
		big := cap(tab.Slots())

		tab.Reset(4)
		if n := len(tab.Slots()); n != 8 || cap(tab.Slots()) != big {
			t.Fatalf("%s: reuse for 4 keys has %d slots (cap %d), want 8 in the old %d", tc.name, n, cap(tab.Slots()), big)
		}
		for i, s := range tab.Slots() {
			if s != 0 {
				t.Fatalf("%s: slot %d of the reused prefix not cleared", tc.name, i)
			}
		}
		few, fewDistinct := keysOf(20)
		checkTable(t, tc.name+", reused", &tab, few, fewDistinct)

		tab.Reset(len(distinct))
		checkTable(t, tc.name+", reused again", &tab, keys, distinct)

		tab.Release()
		if len(tab.keys) != 0 || tab.Find(distinct[0]) != -1 {
			t.Fatalf("%s: a released table still holds keys", tc.name)
		}
		for _, k := range tab.keys[:cap(tab.keys)] {
			if k != (HashKey{}) {
				t.Fatalf("%s: a released table pins key %v", tc.name, k)
			}
		}
		checkTable(t, tc.name+", after release", &tab, keys, distinct)
	}
}
