package value

import (
	"strconv"
	"testing"
)

// keyCols is the key slots of keysOf's rows.
var keyCols = []int{0, 1}

// keysOf is n two-column keys, a string and NULL or a number and a string per
// i, with every second one repeating an earlier i; first[g] is the index in
// keys of distinct key g's first occurrence.
func keysOf(n int) (keys [][]Value, first []int32) {
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		j := i
		if i%2 == 1 {
			j = i / 2
		}
		k := []Value{Str("k" + strconv.Itoa(j)), Null{}}
		if j%3 == 0 {
			k = []Value{Int(int64(j)), Str("x")}
		}
		keys = append(keys, k)
		if !seen[j] {
			seen[j] = true
			first = append(first, int32(i))
		}
	}
	return keys, first
}

// checkTable inserts keys, item i being keys[i], and holds the table to
// first-occurrence numbering: ids follow the order keys first appear, each
// group's first item is that appearance, Find agrees with Insert, and the
// slots stay at most half full.
func checkTable(t *testing.T, name string, tab *KeyTable, hash func([]Value) uint64, keys [][]Value, first []int32) {
	t.Helper()
	sameAs := func(k []Value) func(int32) bool {
		return func(f int32) bool { return SameSlots(keys[f], keyCols, k, keyCols) }
	}
	next := int32(0)
	for i, k := range keys {
		g, added := tab.Insert(hash(k), int32(i), sameAs(k))
		if added != (g == next) || g > next {
			t.Fatalf("%s: %v got id %d (added %v), next new id is %d", name, k, g, added, next)
		}
		if added {
			next++
		}
		if f := tab.Find(hash(k), sameAs(k)); f != g {
			t.Fatalf("%s: Find(%v) = %d, Insert said %d", name, k, f, g)
		}
	}
	if len(tab.groups) != len(first) {
		t.Fatalf("%s: %d groups, want %d", name, len(tab.groups), len(first))
	}
	for g, i := range first {
		if f := tab.Find(hash(keys[i]), sameAs(keys[i])); f != int32(g) || tab.groups[g].first != i {
			t.Fatalf("%s: key %v has id %d and first item %d, want %d and %d (first occurrence order)",
				name, keys[i], f, tab.groups[g].first, g, i)
		}
	}
	if n := len(tab.Slots()); n&(n-1) != 0 || 2*len(tab.groups) > n {
		t.Fatalf("%s: %d slots for %d keys", name, n, len(tab.groups))
	}
	absent := []Value{Str("absent"), Null{}}
	if tab.Find(hash(absent), sameAs(absent)) != -1 {
		t.Fatalf("%s: found a key never inserted", name)
	}
}

// TestKeyTable: a table sized for one key grows as keys come, under the
// key hash and under one that hashes every key alike; a reuse after a
// larger use clears only the slots its own hint needs, and still answers
// exactly.
func TestKeyTable(t *testing.T) {
	keys, first := keysOf(600)
	for _, tc := range []struct {
		name string
		hash func([]Value) uint64
	}{
		{"key hash", func(k []Value) uint64 { return HashSlots(k, keyCols) }},
		{"degenerate hash", func([]Value) uint64 { return 7 }},
	} {
		var tab KeyTable
		if tab.Find(tc.hash(keys[0]), func(int32) bool { return true }) != -1 {
			t.Fatalf("%s: the zero table found a key", tc.name)
		}
		tab.Reset(1)
		checkTable(t, tc.name+", hint 1", &tab, tc.hash, keys, first)
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
		few, fewFirst := keysOf(20)
		checkTable(t, tc.name+", reused", &tab, tc.hash, few, fewFirst)

		tab.Reset(len(first))
		checkTable(t, tc.name+", reused again", &tab, tc.hash, keys, first)
	}
}
