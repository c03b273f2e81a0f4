package value

import (
	"hash/maphash"
	"sync/atomic"
)

// KeyTable numbers distinct keys: the engine's one hash table. It holds no
// key. A caller names each item it inserts (a row, a rank, an atom) by an
// int32 index of its own, hashes the item's key itself (KeyHash, HashSlots)
// and supplies same(first), which reports whether the item's key equals
// that of the earlier item first. A new key gets group id g, the number of
// groups before it, so the ids follow first occurrence; the table keeps of
// it only its hash and the index of its first item.
//
// The groups are found through slots, a linear-probing table whose length is
// a power of two and which is kept at most half full: a slot holds g+1 for
// group g, 0 when empty, and a key with hash h is placed from slot
// h & (len-1) on (ProbeSlots). The hash decides where a key is looked for,
// never whether it is found: a candidate whose hash agrees is confirmed by
// same, so a degenerate hash makes a table slow, not wrong.
//
// The zero KeyTable is empty and ready to use. Reset empties it for reuse,
// clearing only the prefix of the slots the next use's hint needs, so reuse
// costs what the new use holds, not what the old one did. Both arrays are
// pointer-free: a table kept for reuse pins nothing.
type KeyTable struct {
	slots  []int32
	groups []keyGroup
}

// keyGroup is a group's hash, which places it again when the slots grow and
// screens candidates before same is asked, and its first item.
type keyGroup struct {
	hash  uint64
	first int32
}

// keySeed seeds every key hash, drawn once per process so that keys sharing
// home slots cannot be computed ahead of time and fed to every process. No
// output, plan or charge depends on it: keys are numbered in first
// occurrence and confirmed by key.
var keySeed atomic.Uint64

func init() { keySeed.Store(maphash.String(maphash.MakeSeed(), "")) }

// KeySeed returns the process's key seed.
func KeySeed() uint64 { return keySeed.Load() }

// SetKeySeed replaces the key seed and returns the one it replaced, so tests
// can run the same work under two seeds. It reaches only keys hashed after
// it: an index value layer keeps the seed it was built under.
func SetKeySeed(seed uint64) (old uint64) { return keySeed.Swap(seed) }

// KeyHash is the hash of v's key, KeyOf(v).Hash(KeySeed()).
func KeyHash(v Value) uint64 { return KeyOf(v).Hash(keySeed.Load()) }

// HashSlots is the hash of the key of the values at slots: each column's key
// hash seeds the next one's, from the key seed on, so a one-column key
// hashes as KeyHash and no key is built for the whole.
func HashSlots(vals []Value, slots []int) uint64 {
	h := keySeed.Load()
	for _, s := range slots {
		h = KeyOf(vals[s]).Hash(h)
	}
	return h
}

// SameSlots reports whether the key of a at slots as equals the key of b at
// slots bs, column by column (SameKey).
func SameSlots(a []Value, as []int, b []Value, bs []int) bool {
	for i, s := range as {
		if !SameKey(a[s], b[bs[i]]) {
			return false
		}
	}
	return true
}

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
// reserves room for hint groups.
func (t *KeyTable) Reset(hint int) {
	if t.groups == nil {
		t.groups = make([]keyGroup, 0, hint)
	}
	t.groups = t.groups[:0]
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

// ProbeSlots is the one probe loop over slots laid out as a KeyTable's: from
// h's home slot on it returns the first group g for which same(g) holds and
// its slot, or -1 and the empty slot that ends the walk, where a new key with
// hash h belongs.
func ProbeSlots(slots []int32, h uint64, same func(g int32) bool) (g int32, at int) {
	mask := uint64(len(slots) - 1)
	i := h & mask
	for s := slots[i]; s != 0; s = slots[i] {
		if same(s - 1) {
			return s - 1, int(i)
		}
		i = (i + 1) & mask
	}
	return -1, int(i)
}

// Insert returns the group id of item's key, whose hash is h, numbering it
// as the next group, item its first, when same holds of no group's first
// item; added reports that it was new.
func (t *KeyTable) Insert(h uint64, item int32, same func(first int32) bool) (g int32, added bool) {
	if 2*(len(t.groups)+1) > len(t.slots) {
		t.grow()
	}
	g, at := t.probe(h, same)
	if g >= 0 {
		return g, false
	}
	t.groups = append(t.groups, keyGroup{hash: h, first: item})
	t.slots[at] = int32(len(t.groups))
	return int32(len(t.groups) - 1), true
}

// probe is ProbeSlots asking same only of groups whose hash is h.
func (t *KeyTable) probe(h uint64, same func(first int32) bool) (int32, int) {
	return ProbeSlots(t.slots, h, func(g int32) bool { return t.groups[g].hash == h && same(t.groups[g].first) })
}

// grow doubles the slots and places every group again by its hash.
func (t *KeyTable) grow() {
	t.slots = clearedSlots(t.slots, max(2*len(t.slots), 2))
	for g, k := range t.groups {
		_, at := ProbeSlots(t.slots, k.hash, func(int32) bool { return false })
		t.slots[at] = int32(g + 1)
	}
}

// Find returns the id of the group whose hash is h and for whose first item
// same holds, -1 when there is none.
func (t *KeyTable) Find(h uint64, same func(first int32) bool) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	g, _ := t.probe(h, same)
	return g
}

// Slots returns the slot table, laid out as the type comment says. The
// slice is the table's own.
func (t *KeyTable) Slots() []int32 { return t.slots }

// TextKeyHash is the key hash under seed of a text whose dom.TextHash is h:
// KeyOf(Str(s)).Hash(seed) for a text s that does not read as a number. The
// analyzer numbers a path's distinct strings with it, numbers included, so
// spellings of one number do not share a hash.
func TextKeyHash(h uint32, seed uint64) uint64 { return HashKey{kind: 's', h: h}.Hash(seed) }
