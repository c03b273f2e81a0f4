package algebra

import (
	"fmt"
	"reflect"
	"testing"

	"nalquery/internal/value"
)

// TestMapChildrenWalksChildren pins Op.MapChildren on the whole operator
// inventory: the identity mapping rebuilds the operator unchanged, the
// mapping sees exactly Children() in order, replaced inputs are what
// Children() then returns, and nothing but the inputs moves.
func TestMapChildrenWalksChildren(t *testing.T) {
	ops, binary := operatorInventory()
	for name, op := range binary {
		ops[name] = op
	}
	in := constOp{attrs: []string{"A1", "C"}}
	cmds := []Command{LitCmd("x")}
	ops["□"] = Singleton{}
	ops["Γ-self"] = GroupSelf{In: in, G: "g", By: []string{"A1"}, F: SFCount{}}
	ops["Ξ-group"] = XiGroup{In: in, By: []string{"A1"}, S1: cmds, S2: cmds, S3: cmds}
	ops["IdxScan"] = IndexScan{In: in, Attr: "b", URI: "bib.xml", Path: "/bib/book", Depth: 1,
		Cmp: value.CmpLt, Key: ConstVal{V: value.Int(3)}, EstCard: 7}

	for name, op := range ops {
		var visited []Op
		same := op.MapChildren(func(c Op) Op {
			visited = append(visited, c)
			return c
		})
		if !reflect.DeepEqual(same, op) {
			t.Errorf("%s: MapChildren(identity) = %#v, want %#v", name, same, op)
		}
		if !reflect.DeepEqual(visited, op.Children()) {
			t.Errorf("%s: MapChildren visited %v, Children() is %v", name, visited, op.Children())
		}

		var fresh []Op
		replaced := op.MapChildren(func(Op) Op {
			c := constOp{attrs: []string{fmt.Sprintf("fresh%d", len(fresh))}}
			fresh = append(fresh, c)
			return c
		})
		if reflect.TypeOf(replaced) != reflect.TypeOf(op) {
			t.Errorf("%s: MapChildren returned a %T", name, replaced)
		}
		if !reflect.DeepEqual(replaced.Children(), fresh) {
			t.Errorf("%s: after replacing the inputs Children() is %v, want %v", name, replaced.Children(), fresh)
		}
		i := 0
		restored := replaced.MapChildren(func(Op) Op {
			i++
			return visited[i-1]
		})
		if !reflect.DeepEqual(restored, op) {
			t.Errorf("%s: replacing the inputs moved another field: %#v, want %#v", name, restored, op)
		}
	}
}

// sameSchema compares two resolved schemas structurally: attribute names in
// slot order and the nested inner layouts recursively.
func sameSchema(a, b Schema) bool {
	return sameInner(&Inner{Lay: a.Lay, Nested: a.Nested}, &Inner{Lay: b.Lay, Nested: b.Nested})
}

func sameInner(a, b *Inner) bool {
	if (a.Lay == nil) != (b.Lay == nil) || len(a.Nested) != len(b.Nested) {
		return false
	}
	if a.Lay != nil && !reflect.DeepEqual(a.Lay.Names(), b.Lay.Names()) {
		return false
	}
	for k, v := range a.Nested {
		w, ok := b.Nested[k]
		if !ok || !sameInner(v, w) {
			return false
		}
	}
	return true
}

// checkResolvedTree asserts that every node of Resolve(op) mirrors its
// operator's inputs and carries the schema ResolveSchema computes for the
// subtree standing alone. It returns the node count.
func checkResolvedTree(t *testing.T, name string, op Op) int {
	t.Helper()
	count := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		count++
		want, ok := ResolveSchema(n.Op)
		if n.OK != ok || (ok && !sameSchema(n.Schema, want)) {
			t.Errorf("%s: node %s resolved to %+v (ok=%v), standalone %+v (ok=%v)",
				name, n.Op, n.Schema, n.OK, want, ok)
		}
		cs := n.Op.Children()
		if len(cs) != len(n.Kids) {
			t.Fatalf("%s: node %s has %d kids for %d inputs", name, n.Op, len(n.Kids), len(cs))
		}
		for i, k := range n.Kids {
			if !reflect.DeepEqual(k.Op, cs[i]) {
				t.Errorf("%s: kid %d of %s is %s, want %s", name, i, n.Op, k.Op, cs[i])
			}
			walk(k)
		}
	}
	walk(Resolve(op))
	return count
}

// TestResolveTreeShapes covers the shapes compiled plans do not produce: an
// input without schema takes everything above it down with it, an unknown
// extension mid-plan does the same, and a nested sub-plan is resolved with
// the plan — its schema types the attribute a χ binds.
func TestResolveTreeShapes(t *testing.T) {
	payload := value.TupleSeq{{"B": value.Int(7)}}
	grouped := constOp{ts: value.TupleSeq{{"A1": value.Int(1), "g": payload}}, attrs: []string{"A1", "g"}}
	untyped := UnnestDistinct{Attr: "g", In: grouped} // µD over an untracked payload

	over := Resolve(native(Project{Names: []string{"A1"}, In: untyped}))
	if over.OK || over.Kids[0].OK || !over.Kids[0].Kids[0].OK {
		t.Errorf("Π over an untyped µD: Π ok=%v, µD ok=%v, its input ok=%v; want only the input resolved",
			over.OK, over.Kids[0].OK, over.Kids[0].Kids[0].OK)
	}
	if bad := over.unresolved(); bad != over.Kids[0] {
		t.Errorf("Π over an untyped µD: the unresolved operator is %s, want the µD", bad.Op)
	}

	nested := Map{In: relR1(), Attr: "g", E: NestedApply{F: SFIdent{},
		Plan: Select{In: relR2(), Pred: eqCmp("A1", "A2")}}}
	n := Resolve(native(UnnestDistinct{In: nested, Attr: "g"}))
	if inner := n.Kids[0].Schema.nested("g"); inner == nil || !reflect.DeepEqual(inner.Lay.Names(), []string{"A2", "B"}) {
		t.Errorf("χ over a nested plan: inner schema of g is %+v, want the sub-plan's [A2 B]", inner)
	}
	if !n.OK || !reflect.DeepEqual(n.Schema.Lay.Names(), []string{"A1", "A2", "B"}) {
		t.Errorf("µD over it resolved to %v (ok=%v), want the released [A1 A2 B]", n.Schema.Lay.Names(), n.OK)
	}

	for name, op := range map[string]Op{
		"unresolved input": Project{Names: []string{"A1"}, In: untyped},
		"unresolved root":  Select{Pred: ConstVal{V: value.Bool(true)}, In: untyped},
		"extension":        Select{Pred: ConstVal{V: value.Bool(true)}, In: passOp{In: relR1()}},
		"nested sub-plan":  UnnestDistinct{In: nested, Attr: "g"},
	} {
		checkResolvedTree(t, name, native(op))
	}
}
