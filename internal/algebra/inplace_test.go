package algebra

import (
	"reflect"
	"slices"
	"testing"

	"nalquery/internal/value"
)

// The χ-run invariant (docs/EXECUTION.md, "Row ownership and chunks"): the
// producer of a run of χ cuts each row with the room of the run's top
// layout, and each χ of the run writes its new slot past its input's len, in
// place, once. A rebinding χ, and a χ over rows no producer cut for it (□'s
// shared row, a Sort's rows, the rows σ or ⋉ pass through), copies. No row
// changes after it is emitted, and every row outside a run — the root's, a
// breaker's input, any other operator's input — has cap == len.

// rowLog records every row each node of a resolved plan emits, with a copy
// of its values taken at emit.
type rowLog map[*Node][]loggedRow

type loggedRow struct {
	row  value.Row
	vals []value.Value
}

type loggingIter struct {
	RowIter
	log rowLog
	n   *Node
}

func (l *loggingIter) Next() (value.Row, bool) {
	r, ok := l.RowIter.Next()
	if ok {
		l.log[l.n] = append(l.log[l.n], loggedRow{row: r, vals: slices.Clone(r.Vals)})
	}
	return r, ok
}

// watch wraps the opener of every node of the tree under n (nested plans
// aside) so that log records what its opens emit.
func (log rowLog) watch(n *Node) {
	for _, k := range n.Kids {
		log.watch(k)
	}
	open := n.open
	n.open = func(ctx *Ctx, o *outer) RowIter {
		return &loggingIter{RowIter: open(ctx, o), log: log, n: n}
	}
}

// sameBacking reports whether two value slices start at the same array
// element.
func sameBacking(a, b []value.Value) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// CheckRowOwnership runs the plan op on ctx, draining it, and fails t unless
// the χ-run invariant holds for every row its nodes emitted. It returns the
// attributes of the χ that wrote their slot in place, and the number of rows
// they wrote so.
func CheckRowOwnership(t testing.TB, op Op, ctx *Ctx) (inPlace map[string]bool, rows int) {
	t.Helper()
	root := Resolve(op)
	if !root.OK {
		t.Fatalf("%s: does not resolve", op)
	}
	log := rowLog{}
	log.watch(root)
	root.Drain(ctx)
	// sealed is every node whose rows must leave with cap == len: all but
	// the input of a χ that writes in place.
	sealed := map[*Node]bool{root: true}
	inPlace = map[string]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, k := range n.Kids {
			sealed[k] = true
		}
		if w, ok := n.Op.(Map); ok {
			in, out := log[n.Kids[0]], log[n]
			if len(in) != len(out) {
				t.Fatalf("%s: χ[%s] emitted %d rows of %d", op, w.Attr, len(out), len(in))
			}
			for i := range out {
				if sameBacking(in[i].row.Vals, out[i].row.Vals) {
					inPlace[w.Attr] = true
					sealed[n.Kids[0]] = false
					rows++
				}
			}
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
	for n, emitted := range log {
		for i, e := range emitted {
			if sealed[n] && cap(e.row.Vals) != len(e.row.Vals) {
				t.Errorf("%s: row %d of %s leaves with len %d cap %d", op, i, n.Op, len(e.row.Vals), cap(e.row.Vals))
			}
			if !reflect.DeepEqual(e.row.Vals, e.vals) {
				t.Errorf("%s: row %d of %s changed after emit: %v, was %v", op, i, n.Op, e.row.Vals, e.vals)
			}
		}
	}
	if s := singleton[0].Vals; len(s) != 0 || cap(s) != 0 {
		t.Errorf("%s: □'s row is now len %d cap %d", op, len(s), cap(s))
	}
	return inPlace, rows
}

// TestChiRunsWriteInPlace: over each producer a run's new slots are written
// in place; a rebinding χ, and a χ over □, σ, a Sort or a ⋉, copies; nothing
// an operator emitted changes later — not the input of a rebinding χ, nor the
// rows a Sort retained from a σ/χ chain after the chain ended — and what
// leaves a run, for the root or a breaker, has cap == len.
func TestChiRunsWriteInPlace(t *testing.T) {
	items := func(attr string, vs ...int64) Op {
		seq := make(value.Seq, len(vs))
		for i, v := range vs {
			seq[i] = value.Int(v)
		}
		return UnnestMap{In: Singleton{}, Attr: attr, E: ConstVal{V: seq}}
	}
	plus := func(attr string, n int64) Expr {
		return ArithExpr{L: Var{Name: attr}, R: ConstVal{V: value.Int(n)}, Op: '+'}
	}
	gt := func(attr string, n int64) Expr {
		return CmpExpr{L: Var{Name: attr}, R: ConstVal{V: value.Int(n)}, Op: value.CmpGt}
	}
	for _, c := range []struct {
		name    string
		op      Op
		inPlace []string // the χ that write in place; every other χ copies
	}{
		{"run over Υ", Map{In: Map{In: items("x", 1, 2, 3), Attr: "y", E: plus("x", 1)}, Attr: "z", E: plus("y", 1)},
			[]string{"y", "z"}},
		{"χ over σ", Map{In: Select{In: Map{In: items("x", 1, 2, 3), Attr: "y", E: plus("x", 1)}, Pred: gt("y", 2)},
			Attr: "z", E: plus("y", 1)}, []string{"y"}},
		{"rebinding χ at the top", Map{In: items("x", 1, 2, 3), Attr: "x", E: plus("x", 10)}, nil},
		{"rebinding χ", Map{In: Map{In: items("x", 1, 2, 3), Attr: "x", E: plus("x", 10)}, Attr: "y", E: plus("x", 1)},
			[]string{"y"}},
		{"rebinding inside a run", Map{In: Map{In: Map{In: items("x", 1, 2), Attr: "y", E: plus("x", 1)}, Attr: "y", E: plus("y", 1)},
			Attr: "z", E: plus("y", 1)}, []string{"y", "z"}},
		{"χ over □", Map{In: Map{In: Singleton{}, Attr: "a", E: ConstVal{V: value.Int(1)}}, Attr: "b", E: plus("a", 1)},
			[]string{"b"}},
		{"χ over Sort of a run", Map{In: Sort{In: Map{In: Select{In: Map{In: items("x", 3, 1, 2, 5), Attr: "w", E: plus("x", 1)},
			Pred: gt("x", 1)}, Attr: "y", E: plus("x", 1)}, By: []string{"y"}}, Attr: "z", E: plus("y", 1)}, []string{"w"}},
		{"χ over ⋉", Map{In: SemiJoin{L: items("x", 1, 2, 3), R: items("u", 2, 3, 4),
			Pred: CmpExpr{L: Var{Name: "x"}, R: Var{Name: "u"}, Op: value.CmpEq}}, Attr: "y", E: plus("x", 1)}, nil},
		{"χ over ⟕", Map{In: OuterJoin{L: items("x", 1, 2, 3), R: Map{In: items("u", 2, 3), Attr: "g", E: plus("u", 1)},
			Pred: CmpExpr{L: Var{Name: "x"}, R: Var{Name: "u"}, Op: value.CmpEq}, G: "g", Default: SFCount{}},
			Attr: "y", E: plus("x", 1)}, []string{"g", "y"}},
	} {
		inPlace, _ := CheckRowOwnership(t, c.op, NewCtx(nil))
		for _, attr := range c.inPlace {
			if !inPlace[attr] {
				t.Errorf("%s: χ[%s] copied, want in place", c.name, attr)
			}
			delete(inPlace, attr)
		}
		for attr := range inPlace {
			t.Errorf("%s: χ[%s] wrote in place, want a copy", c.name, attr)
		}
	}
}
