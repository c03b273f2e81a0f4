package value

// KeyTable numbers distinct keys: the engine's one hash table. A key gets
// group id g, the number of keys inserted before it, when it is first
// inserted, so the ids follow first occurrence. The ids are found through
// slots, a linear-probing table whose length is a power of two and which is
// kept at most half full: a slot holds g+1 for group g, 0 when empty, and key
// k is placed from slot Hash(k) & (len-1) on. The hash decides where a key is looked for, never
// whether it is found: every candidate is confirmed by key equality, so a
// degenerate hash makes a table slow, not wrong.
//
// The zero KeyTable is empty and ready to use. Reset empties it for reuse:
// the keys are truncated and only the prefix of the slots the next use's
// hint needs is cleared, so reusing a table that once held many keys costs
// what the new use holds, not what the old one did. The slots are
// pointer-free; the keys hold strings until they are overwritten or
// cleared (Release).
type KeyTable struct {
	// Hash places a key; nil means HashKey.Hash under a fixed seed.
	// internal/index sets the hash its probes use, tests a degenerate one.
	Hash  func(HashKey) uint64
	keys  []HashKey
	slots []int32
}

// keyTableSeed seeds the default hash. Any seed gives the same answers.
const keyTableSeed = 0x6e616c7175657279

// tableSize is the smallest power of two, at least 2, that holds n keys at
// most half full.
func tableSize(n int) int {
	size := 2
	for size < 2*n {
		size *= 2
	}
	return size
}

// Reset empties the table and sizes its slots for hint keys, reusing the
// memory it has when that is enough. On a table that has none, it also
// reserves room for hint keys.
func (t *KeyTable) Reset(hint int) {
	if t.keys == nil {
		t.keys = make([]HashKey, 0, hint)
	}
	t.keys = t.keys[:0]
	t.slots = clearedSlots(t.slots, tableSize(hint))
}

// clearedSlots returns size empty slots, in s's memory when it has room.
func clearedSlots(s []int32, size int) []int32 {
	if cap(s) < size {
		return make([]int32, size)
	}
	s = s[:size]
	clear(s)
	return s
}

func (t *KeyTable) hash(k HashKey) uint64 {
	if t.Hash != nil {
		return t.Hash(k)
	}
	return k.Hash(keyTableSeed)
}

// Insert returns k's group id, numbering k as the next group when it is
// new; added reports that it was.
func (t *KeyTable) Insert(k HashKey) (g int32, added bool) {
	if 2*(len(t.keys)+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := t.hash(k) & mask
	for s := t.slots[i]; s != 0; s = t.slots[i] {
		if t.keys[s-1] == k {
			return s - 1, false
		}
		i = (i + 1) & mask
	}
	t.keys = append(t.keys, k)
	t.slots[i] = int32(len(t.keys))
	return int32(len(t.keys) - 1), true
}

// grow doubles the slots and places every key again.
func (t *KeyTable) grow() {
	t.slots = clearedSlots(t.slots, max(2*len(t.slots), 2))
	mask := uint64(len(t.slots) - 1)
	for g, k := range t.keys {
		i := t.hash(k) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(g + 1)
	}
}

// Find returns k's group id, -1 when k was never inserted.
func (t *KeyTable) Find(k HashKey) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.hash(k) & mask; t.slots[i] != 0; i = (i + 1) & mask {
		if s := t.slots[i]; t.keys[s-1] == k {
			return s - 1
		}
	}
	return -1
}

// Slots returns the slot table, laid out as the type comment says. The
// slice is the table's own.
func (t *KeyTable) Slots() []int32 { return t.slots }

// Release empties the table and clears its keys through their capacity, so
// the memory it keeps for reuse pins no string. The slots are left for the
// next Reset to clear as much of as it needs.
func (t *KeyTable) Release() {
	clear(t.keys[:cap(t.keys)])
	t.keys, t.slots = t.keys[:0], t.slots[:0]
}
