package dom

import (
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// A document's rows live in one object the collector scans one word of: a
// header word, the *table, followed by the rows,
//
//	struct { T *table; R [c]Node }
//
// Node holds no pointer, so the object's only pointer word is its first,
// and the collector scans an object only up to its last pointer word. A row
// of rank pre sits headerBytes + pre·rowBytes past the header, so it finds
// its table by stepping back that far (Node.table): the arithmetic stays
// inside the one allocation (unsafe.Pointer rule 3), which checkptr checks
// under -race. This file is the package's only use of unsafe.
const (
	headerBytes = unsafe.Sizeof((*table)(nil))
	rowBytes    = unsafe.Sizeof(Node{})
)

// table returns the table of the row's document, read from the header word
// before row 0 of its slab.
func (n *Node) table() *table {
	return *(**table)(unsafe.Add(unsafe.Pointer(n), -(int(headerBytes) + int(n.pre)*int(rowBytes))))
}

// newRows allocates the slab of a document of n rows, sets its header to t
// and returns the rows: len n, and cap the row count of n's size class
// (rowClass), whose rows past n stay zero and belong to no node.
func newRows(t *table, n int) []Node {
	c := rowClass(n)
	p := reflect.New(slabType(c)).UnsafePointer()
	*(**table)(p) = t
	return unsafe.Slice((*Node)(unsafe.Add(p, headerBytes)), c)[:n]
}

// rowClass rounds a row count up to its size class: exact up to 16 rows,
// then 16 classes per doubling, so a slab has fewer than n/16 rows of slack.
// reflect keeps every struct and array type it makes for good, so the
// classes bound what documents of every possible size add to the process.
func rowClass(n int) int {
	if n <= 16 {
		return n
	}
	step := 1 << (bits.Len(uint(n-1)) - 5)
	return (n + step - 1) &^ (step - 1)
}

// slabTypes caches the slab type of each size class: StructOf allocates even
// when reflect's own cache already holds the type.
var slabTypes = struct {
	sync.Mutex
	m map[int]reflect.Type
}{m: map[int]reflect.Type{}}

// slabType returns struct { T *table; R [c]Node }.
func slabType(c int) reflect.Type {
	slabTypes.Lock()
	defer slabTypes.Unlock()
	typ, ok := slabTypes.m[c]
	if !ok {
		typ = reflect.StructOf([]reflect.StructField{
			{Name: "T", Type: reflect.TypeFor[*table]()},
			{Name: "R", Type: reflect.ArrayOf(c, reflect.TypeFor[Node]())},
		})
		slabTypes.m[c] = typ
	}
	return typ
}
