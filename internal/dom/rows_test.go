package dom

import (
	"math/bits"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestSlabIsHeaderThenRows pins the slab's layout that Node.table steps
// back through: exactly two fields, the *table at offset 0 and then the
// rows, row i at headerBytes + i·rowBytes.
func TestSlabIsHeaderThenRows(t *testing.T) {
	for _, c := range []int{1, 16, 17, 34, 1088, 94208} {
		typ := slabType(c)
		if typ.NumField() != 2 {
			t.Fatalf("class %d: the slab type has %d fields, want 2", c, typ.NumField())
		}
		h, r := typ.Field(0), typ.Field(1)
		if h.Type != reflect.TypeFor[*table]() || h.Offset != 0 {
			t.Errorf("class %d: field 0 is %s at offset %d, want *dom.table at 0", c, h.Type, h.Offset)
		}
		if r.Type != reflect.ArrayOf(c, reflect.TypeFor[Node]()) || r.Offset != headerBytes {
			t.Errorf("class %d: field 1 is %s at offset %d, want [%d]dom.Node at %d", c, r.Type, r.Offset, c, headerBytes)
		}
		if typ.Size() != headerBytes+uintptr(c)*rowBytes {
			t.Errorf("class %d: the slab type is %d bytes, want %d", c, typ.Size(), headerBytes+uintptr(c)*rowBytes)
		}
		if slabType(c) != typ {
			t.Errorf("class %d: a second slabType call made a new type", c)
		}
	}
}

// handleOnly builds a document of fill filler elements between <a> and <b>
// and returns only the handle of its last row, b's attribute m; nothing
// else of the document stays reachable.
func handleOnly(uri string, fill int) *Node {
	b := NewBuilder(uri).Begin("r").Element("a", "one")
	for i := 0; i < fill; i++ {
		b.Begin("f").End()
	}
	d := b.Begin("b").Attrib("k", "v").Attrib("m", "w").End().End().Done()
	return d.Node(d.NumNodes() - 1)
}

// TestHandleKeepsDocumentAlive: a node handle alone keeps its whole document
// readable across collections. The handle points into the row slab, and
// the slab's header word is the only path to the table, so a header the
// collector cannot see (a uintptr, say) frees the table under the handle;
// the allocations after each collection then reuse its memory. Under -race,
// checkptr also checks Node.table's step back to the header.
func TestHandleKeepsDocumentAlive(t *testing.T) {
	other := NewBuilder("a-other.xml").Begin("x").End().Done()
	for _, fill := range []int{0, 20, 2000} { // a small slab, a larger one, one past 32 KiB
		last := handleOnly("kept.xml", fill)
		var junk [][]string
		for range 3 {
			runtime.GC()
			for range 2000 { // objects the size of a table, written over
				junk = append(junk, []string{strings.Repeat("z", 8), "z", "z", "z", "z", "z", "z", "z"})
			}
		}
		p := last.Parent()
		switch {
		case last.Name() != "m" || last.StringValue() != "w" || last.Kind() != KindAttribute:
			t.Fatalf("fill %d: last row reads %s %q=%q, want attribute m=\"w\"", fill, last.Kind(), last.Name(), last.StringValue())
		case p == nil || p.Name() != "b" || p.FirstAttr().NextSibling() != last || last.NextSibling() != nil:
			t.Fatalf("fill %d: the last row's parent or siblings read wrong", fill)
		case p.Parent().Name() != "r" || p.Parent().FirstChild().StringValue() != "one" || p.NextSibling() != nil:
			t.Fatalf("fill %d: the root element reads wrong", fill)
		case CompareOrder(p, last) >= 0 || CompareOrder(last, last) != 0:
			t.Fatalf("fill %d: document order reads wrong", fill)
		case CompareOrder(other.Root, last) >= 0 || CompareOrder(last, other.Root) <= 0:
			t.Fatalf("fill %d: the order across documents (by URI) reads wrong", fill)
		}
		runtime.KeepAlive(junk)
	}
}

// TestSlabTypesAreBounded: documents of 2 000 and more distinct node counts,
// from 1 row to about 100 000, make at most 16 slab types per doubling of
// the node count, and no slab has more than n/16 + 1 rows of slack. reflect
// keeps every type it makes for the life of the process, so without size
// classes each distinct document size an uploader sends would add one.
func TestSlabTypesAreBounded(t *testing.T) {
	var counts []int
	for n := 1; n <= 1990; n++ {
		counts = append(counts, n)
	}
	for n := 2048; n <= 100000; n = n + n/24 + 1 { // about 24 counts per doubling
		counts = append(counts, n)
	}
	for _, n := range counts {
		b := NewBuilder("bound.xml")
		for i := 1; i < n; i++ {
			b.Text("")
		}
		d := b.Done()
		rows := d.Root.table().nodes
		if len(rows) != n {
			t.Fatalf("a document of %d rows has %d", n, len(rows))
		}
		if slack := cap(rows) - n; slack > n/16+1 {
			t.Errorf("a document of %d rows has a slab of %d: %d rows of slack, want ≤ %d", n, cap(rows), slack, n/16+1)
		}
	}
	perDoubling := map[int]int{}
	slabTypes.Lock()
	for c := range slabTypes.m {
		perDoubling[bits.Len(uint(c-1))]++
	}
	total := len(slabTypes.m)
	slabTypes.Unlock()
	for k, types := range perDoubling {
		if types > 16 {
			t.Errorf("%d slab types for node counts in (%d, %d], want ≤ 16", types, (1<<k)/2, 1<<k)
		}
	}
	t.Logf("%d distinct node counts, %d slab types", len(counts), total)
}
