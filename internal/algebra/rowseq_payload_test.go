package algebra

import (
	"testing"

	"nalquery/internal/value"
)

// Differential property tests of the RowSeq group-payload representation:
// for plans whose nested data the slot engine carries as rows (Γ payloads,
// e[a] bindings, nested-in-nested groups), native execution must emit the
// same sequences as the definitional map evaluator — across the edge cases
// that distinguish the representations (empty groups, renames inside
// groups, µD member dedup on partially absent attributes).

// mapFree executes op natively and requires that no map tuple is on the data
// path: every tuple-sequence value in an emitted row — at any nesting depth —
// is a slot-backed RowSeq.
func mapFree(t *testing.T, name string, op Op) {
	t.Helper()
	var check func(v value.Value)
	check = func(v value.Value) {
		switch w := v.(type) {
		case value.TupleSeq:
			t.Errorf("%s: a map-backed tuple sequence on the data path: %s", name, w)
		case value.RowSeq:
			for i := 0; i < w.Len(); i++ {
				for _, m := range w.At(i).Vals {
					check(m)
				}
			}
		}
	}
	n := Resolve(native(op))
	if !n.OK {
		t.Fatalf("%s: plan does not resolve", name)
	}
	for _, r := range n.rows(NewCtx(nil), nil, nil) {
		for _, v := range r.Vals {
			check(v)
		}
	}
}

func diffPayloadPlan(t *testing.T, name string, op Op) {
	t.Helper()
	if diffOp(t, name, op) {
		mapFree(t, name, op)
	}
}

// TestRowSeqGammaMuRoundtrip pins the Γ→µD roundtrip: grouping with ΠA over
// all member attributes builds a flat RowSeq payload, unnesting splices it
// back — and the flat sequences match the map evaluator's, including the
// group keys reappearing inside the members (shared slots).
func TestRowSeqGammaMuRoundtrip(t *testing.T) {
	in := constOp{
		ts: value.TupleSeq{
			{"K": value.Int(1), "V": value.Str("a")},
			{"K": value.Int(2), "V": value.Str("b")},
			{"K": value.Int(1), "V": value.Str("c")},
			{"K": value.Int(3), "V": value.Str("d")},
			{"K": value.Int(2), "V": value.Str("e")},
		},
		attrs: []string{"K", "V"},
	}
	gamma := GroupUnary{In: in, G: "g", By: []string{"K"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"K", "V"}}}
	diffPayloadPlan(t, "gamma-muD", UnnestDistinct{In: gamma, Attr: "g"})
}

// TestRowSeqAllDuplicateKeys drives one giant group (every input tuple
// shares the key) through Γ→µD and through the count/aggregate appliers.
func TestRowSeqAllDuplicateKeys(t *testing.T) {
	ts := make(value.TupleSeq, 0, 12)
	for i := 0; i < 12; i++ {
		ts = append(ts, value.Tuple{"K": value.Str("same"), "N": value.Int(int64(i % 3))})
	}
	in := constOp{ts: ts, attrs: []string{"K", "N"}}
	gamma := GroupUnary{In: in, G: "g", By: []string{"K"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"K", "N"}}}
	diffPayloadPlan(t, "alldup-muD", UnnestDistinct{In: gamma, Attr: "g"})
	diffPayloadPlan(t, "alldup-count",
		GroupUnary{In: in, G: "c", By: []string{"K"}, Theta: value.CmpEq, F: SFCount{}})
	diffPayloadPlan(t, "alldup-sum",
		GroupUnary{In: in, G: "s", By: []string{"K"}, Theta: value.CmpEq, F: SFAgg{Fn: "sum", Attr: "N"}})
}

// TestRowSeqEmptyGroupPadding pins empty groups: binary Γ gives unmatched
// left tuples an empty payload, which µD releases as nothing on both
// evaluators.
func TestRowSeqEmptyGroupPadding(t *testing.T) {
	left := constOp{
		ts: value.TupleSeq{
			{"A1": value.Int(1)},
			{"A1": value.Int(99)}, // no partner
			{"A1": value.Int(2)},
		},
		attrs: []string{"A1"},
	}
	right := constOp{
		ts: value.TupleSeq{
			{"A2": value.Int(1), "B": value.Str("x")},
			{"A2": value.Int(2), "B": value.Str("y")},
			{"A2": value.Int(1), "B": value.Str("z")},
		},
		attrs: []string{"A2", "B"},
	}
	gamma := GroupBinary{L: left, R: right, G: "g",
		LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"A2", "B"}}}
	diffPayloadPlan(t, "empty-group-muD", UnnestDistinct{In: gamma, Attr: "g"})

}

// TestRowSeqRenameInsideGroup pins that a rename below Γ reaches the
// payload: the members carry the renamed attributes and µD releases them
// under the new names.
func TestRowSeqRenameInsideGroup(t *testing.T) {
	in := constOp{
		ts: value.TupleSeq{
			{"K": value.Int(1), "V": value.Str("a")},
			{"K": value.Int(1), "V": value.Str("b")},
			{"K": value.Int(2), "V": value.Str("c")},
		},
		attrs: []string{"K", "V"},
	}
	ren := ProjectRename{In: in, Pairs: []Rename{{New: "W", Old: "V"}}}
	gamma := GroupUnary{In: ren, G: "g", By: []string{"K"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"K", "W"}}}
	diffPayloadPlan(t, "rename-in-group", UnnestDistinct{In: gamma, Attr: "g"})

	// Swap rename (K↔V) below Γ: simultaneous substitution inside the
	// member layout.
	swap := ProjectRename{In: in, Pairs: []Rename{{New: "V", Old: "K"}, {New: "K", Old: "V"}}}
	gammaSwap := GroupUnary{In: swap, G: "g", By: []string{"V"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"K", "V"}}}
	diffPayloadPlan(t, "swap-rename-in-group", UnnestDistinct{In: gammaSwap, Attr: "g"})
}

// TestRowSeqNestedInNested pins Γ under µD under Γ: the outer payload's
// members themselves carry a RowSeq payload, and both unnest levels release
// their attributes natively.
func TestRowSeqNestedInNested(t *testing.T) {
	in := constOp{
		ts: value.TupleSeq{
			{"K": value.Int(1), "J": value.Str("x"), "V": value.Int(10)},
			{"K": value.Int(1), "J": value.Str("y"), "V": value.Int(20)},
			{"K": value.Int(2), "J": value.Str("x"), "V": value.Int(30)},
			{"K": value.Int(1), "J": value.Str("x"), "V": value.Int(40)},
		},
		attrs: []string{"J", "K", "V"},
	}
	inner := GroupUnary{In: in, G: "g1", By: []string{"K", "J"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"J", "K", "V"}}}
	outer := GroupUnary{In: inner, G: "g2", By: []string{"K"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"J", "K", "g1"}}}
	plan := UnnestDistinct{In: UnnestDistinct{In: outer, Attr: "g2"}, Attr: "g1"}
	diffPayloadPlan(t, "gamma-under-mu", plan)
}

// TestRowSeqBindingsAndDistinct pins the e[a] constructor payloads: χ binds
// an item sequence as a width-1 RowSeq sharing the sequence backing, and
// µD releases and deduplicates it like the map engine.
func TestRowSeqBindingsAndDistinct(t *testing.T) {
	in := constOp{
		ts: value.TupleSeq{
			{"S": value.Seq{value.Int(1), value.Int(2), value.Int(1)}},
			{"S": value.Seq{value.Str("3"), value.Int(3)}}, // numeric dedup across lexical forms
			{"S": value.Seq{}},
		},
		attrs: []string{"S"},
	}
	bind := Map{In: in, Attr: "b", E: BindTuples{E: Var{Name: "S"}, Attr: "x"}}
	diffPayloadPlan(t, "bind-muD", UnnestDistinct{In: bind, Attr: "b"})
}

// TestRowSeqFilteredApplier pins f ∘ σp payloads (Eqvs. 8/9): the predicate
// compiles against the member layout and the filtered payload stays a
// RowSeq.
func TestRowSeqFilteredApplier(t *testing.T) {
	in := constOp{
		ts: value.TupleSeq{
			{"K": value.Int(1), "N": value.Int(5)},
			{"K": value.Int(1), "N": value.Int(15)},
			{"K": value.Int(2), "N": value.Int(25)},
			{"K": value.Int(2), "N": value.Int(5)},
		},
		attrs: []string{"K", "N"},
	}
	f := SFFiltered{
		Pred:  CmpExpr{L: Var{Name: "N"}, R: ConstVal{V: value.Int(10)}, Op: value.CmpGt},
		Inner: SFCount{},
	}
	gamma := GroupUnary{In: in, G: "c", By: []string{"K"}, Theta: value.CmpEq, F: f}
	diffPayloadPlan(t, "filtered-count", gamma)

	fpi := SFFiltered{
		Pred:  CmpExpr{L: Var{Name: "N"}, R: ConstVal{V: value.Int(10)}, Op: value.CmpGt},
		Inner: SFProject{Attrs: []string{"K", "N"}},
	}
	gammaPi := GroupUnary{In: in, G: "g", By: []string{"K"}, Theta: value.CmpEq, F: fpi}
	diffPayloadPlan(t, "filtered-project-muD", UnnestDistinct{In: gammaPi, Attr: "g"})
}

// TestFilteredProjectKeepsEachGroupsRows: f ∘ σp reuses one buffer for the
// rows σp keeps, group after group: every group's ΠA payload must hold its
// own kept rows after the later groups were filtered into that buffer.
func TestFilteredProjectKeepsEachGroupsRows(t *testing.T) {
	var ts value.TupleSeq
	for i := 0; i < 40; i++ {
		ts = append(ts, value.Tuple{"K": value.Int(int64(i % 5)), "N": value.Int(int64(i))})
	}
	in := constOp{ts: ts, attrs: []string{"K", "N"}}
	fpi := SFFiltered{Pred: CmpExpr{L: Var{Name: "N"}, R: ConstVal{V: value.Int(14)}, Op: value.CmpGt}, Inner: SFProject{Attrs: []string{"K", "N"}}}
	gamma := GroupUnary{In: in, G: "g", By: []string{"K"}, Theta: value.CmpEq, F: fpi}
	diffPayloadPlan(t, "filtered-project", gamma)

	n := Resolve(native(gamma))
	for _, r := range n.rows(NewCtx(nil), nil, nil) {
		key, g := r.Tuple()["K"], r.Tuple()["g"].(value.RowSeq)
		if g.Len() != 5 {
			t.Errorf("group %v: %d members, want 5", key, g.Len())
		}
		for i := 0; i < g.Len(); i++ {
			if m := g.At(i).Tuple(); m["K"] != key {
				t.Errorf("group %v: member %d is %v, another group's row", key, i, m)
			}
		}
	}
}
