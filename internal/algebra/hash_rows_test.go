package algebra

import (
	"math/rand"
	"testing"

	"nalquery/internal/value"
)

// Differential property tests of the hash-partitioned paths of the ordered
// operators (⋉, ▷, ⟕, unary/binary Γ over equality keys) against the
// definitional Op.Eval, mirroring the engine-level slot/map tests
// (the root package's TestSlotEngineMatchesMapEngine): sequence equality, bag equality
// and Ξ-output equality, over random inputs plus the edge cases that bit
// hash implementations before (empty inputs, all-duplicate keys,
// ⊥-padding of empty groups).

// runNativeRows executes op on the slot engine and reports the result plus
// whether the plan resolved: a resolved plan runs on slot-native iterators
// throughout, there is nothing else to open.
func runNativeRows(op Op) (value.TupleSeq, string, bool) {
	n := Resolve(native(op))
	if !n.OK {
		return nil, "", false
	}
	ctx := NewCtx(nil)
	rows := drainRows(ctx, TripBuild, n.open(ctx, nil), nil)
	out := make(value.TupleSeq, len(rows))
	for i, r := range rows {
		out[i] = r.Tuple()
	}
	return out, ctx.OutString(), true
}

// diffOp compares Eval and native row execution of one operator.
func diffOp(t *testing.T, name string, op Op) bool {
	t.Helper()
	op = native(op) // both evaluators run the same plan
	want := op.Eval(NewCtx(nil), nil)
	got, _, ok := runNativeRows(op)
	if !ok {
		t.Errorf("%s: does not resolve", name)
		return false
	}
	if !value.TupleSeqEqual(want, got) {
		t.Errorf("%s: native rows differ from Eval\neval:   %.300s\nnative: %.300s", name, want, got)
		return false
	}
	if !value.TupleSeqEqualBag(want, got) {
		t.Errorf("%s: native rows not bag-equal to Eval", name)
		return false
	}
	return true
}

var thetasAll = []value.CmpOp{value.CmpEq, value.CmpNe, value.CmpLt, value.CmpLe, value.CmpGt, value.CmpGe}

// hashFamily builds every operator with a hash path over the given inputs
// (e1 with A1/C, e2 with A2/B columns), keyed on A1 = A2; a non-nil
// residual is conjoined to the key equality of the join predicates.
func hashFamily(e1, e2 Op, residual Expr) map[string]Op {
	pred := Expr(eqCmp("A1", "A2"))
	if residual != nil {
		pred = AndExpr{L: pred, R: residual}
	}
	return map[string]Op{
		"⋉": SemiJoin{L: e1, R: e2, Pred: pred},
		"▷": AntiJoin{L: e1, R: e2, Pred: pred},
		"⟕": OuterJoin{L: e1, R: e2, Pred: pred, G: "B", Default: SFCount{}},
		"Γ-binary": GroupBinary{L: e1, R: e2, G: "g",
			LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"A2", "B"}}},
		"Γ-unary": GroupUnary{In: e2, G: "g", By: []string{"A2"},
			Theta: value.CmpEq, F: SFAgg{Fn: "sum", Attr: "B"}},
	}
}

// TestPartitionedRowsMatchEval: random inputs, every operator of the
// family, with and without a residual predicate.
func TestPartitionedRowsMatchEval(t *testing.T) {
	quickCheck(t, "partitioned-rows=Eval", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randRel(rng, []string{"A1", "C"}, 12, 4)
		e2 := randRel(rng, []string{"A2", "B"}, 12, 4)
		var residual Expr
		if rng.Intn(2) == 1 {
			residual = CmpExpr{L: Var{Name: "C"}, R: Var{Name: "B"}, Op: value.CmpLe}
		}
		for name, op := range hashFamily(e1, e2, residual) {
			if !diffOp(t, name, op) {
				return false
			}
		}
		return true
	})
}

// TestPartitionedRowsMultiKey: keys of two and three columns, hashed by
// chaining their columns' hashes and compared column by column.
func TestPartitionedRowsMultiKey(t *testing.T) {
	quickCheck(t, "partitioned-rows-multikey", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randRel(rng, []string{"A1", "K1", "J1"}, 12, 3)
		e2 := randRel(rng, []string{"A2", "K2", "J2"}, 12, 3)
		twoKeys := AndExpr{L: eqCmp("A1", "A2"), R: eqCmp("K1", "K2")}
		two := OuterJoin{L: e1, R: e2, Pred: twoKeys, G: "J2", Default: SFCount{}}
		three := OuterJoin{L: e1, R: e2, Pred: AndExpr{L: twoKeys, R: eqCmp("J1", "J2")}, G: "J2", Default: SFCount{}}
		gu := GroupUnary{In: e2, G: "g", By: []string{"A2", "K2", "J2"},
			Theta: value.CmpEq, F: SFCount{}}
		return diffOp(t, "⟕-2key", two) && diffOp(t, "⟕-3key", three) &&
			diffOp(t, "Γ-3key", gu)
	})
}

// TestPartitionedRowsGeneralTheta: the non-equality grouping paths take
// the scan route on both engines.
func TestPartitionedRowsGeneralTheta(t *testing.T) {
	quickCheck(t, "partitioned-rows-θ", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randRel(rng, []string{"A1"}, 8, 4)
		e2 := randRel(rng, []string{"A2", "B"}, 8, 4)
		theta := thetasAll[rng.Intn(len(thetasAll))]
		gu := GroupUnary{In: e2, G: "g", By: []string{"A2"}, Theta: theta, F: SFCount{}}
		gb := GroupBinary{L: e1, R: e2, G: "g",
			LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: theta, F: SFCount{}}
		return diffOp(t, "Γ-θ", gu) && diffOp(t, "Γ-binary-θ", gb)
	})
}

// TestPartitionedRowsEdgeInputs: empty inputs and all-duplicate keys.
func TestPartitionedRowsEdgeInputs(t *testing.T) {
	empty1 := constOp{attrs: []string{"A1", "C"}}
	empty2 := constOp{attrs: []string{"A2", "B"}}
	one1 := constOp{ts: value.TupleSeq{{"A1": value.Int(1), "C": value.Int(9)}},
		attrs: []string{"A1", "C"}}
	allDup := func(n int, attrs ...string) constOp {
		ts := make(value.TupleSeq, n)
		for i := range ts {
			t := value.Tuple{attrs[0]: value.Int(7)}
			for _, a := range attrs[1:] {
				t[a] = value.Int(int64(i))
			}
			ts[i] = t
		}
		return constOp{ts: ts, attrs: attrs}
	}
	cases := []struct {
		name   string
		e1, e2 Op
	}{
		{"both-empty", empty1, empty2},
		{"left-empty", empty1, allDup(5, "A2", "B")},
		{"right-empty", one1, empty2},
		{"all-dup-keys", allDup(6, "A1", "C"), allDup(6, "A2", "B")},
	}
	for _, c := range cases {
		for name, op := range hashFamily(c.e1, c.e2, nil) {
			diffOp(t, c.name+"/"+name, op)
		}
	}
}

// TestPartitionedRowsPadding: ⊥-padding of empty ⟕ groups and the default
// value of empty Γ groups, in the Eqv. 2 configuration (grouped right
// side).
func TestPartitionedRowsPadding(t *testing.T) {
	left := constOp{ts: value.TupleSeq{
		{"A1": value.Int(1)}, {"A1": value.Int(99)}, {"A1": value.Int(2)},
	}, attrs: []string{"A1"}}
	right := constOp{ts: value.TupleSeq{
		{"A2": value.Int(1), "B": value.Int(10)},
		{"A2": value.Int(2), "B": value.Int(20)},
		{"A2": value.Int(2), "B": value.Int(21)},
	}, attrs: []string{"A2", "B"}}
	grouped := GroupUnary{In: right, G: "g", By: []string{"A2"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"A2", "B"}}}

	oj := OuterJoin{L: left, R: grouped, Pred: eqCmp("A1", "A2"), G: "g", Default: SFCount{}}
	if !diffOp(t, "⟕-padding", oj) {
		return
	}
	got, _, _ := runNativeRows(oj)
	var padded value.Tuple
	for _, tp := range got {
		if value.DeepEqual(tp["A1"], value.Int(99)) {
			padded = tp
		}
	}
	if padded == nil {
		t.Fatalf("⟕ lost the unmatched left tuple: %s", got)
	}
	if _, isNull := padded["A2"].(value.Null); !isNull {
		t.Errorf("⟕ must ⊥-pad A2, got %v", padded["A2"])
	}
	if !value.DeepEqual(padded["g"], value.Int(0)) {
		t.Errorf("⟕ default on empty group: g = %v, want count(ε) = 0", padded["g"])
	}

	gb := GroupBinary{L: left, R: right, G: "g",
		LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpEq, F: SFCount{}}
	if !diffOp(t, "Γ-binary-empty-group", gb) {
		return
	}
	got, _, _ = runNativeRows(gb)
	for _, tp := range got {
		if value.DeepEqual(tp["A1"], value.Int(99)) && !value.DeepEqual(tp["g"], value.Int(0)) {
			t.Errorf("Γ empty group: g = %v, want 0", tp["g"])
		}
	}
}

// TestGroupBinaryAbsentLeftKeys: binary Γ over left keys the right input
// lacks, repeated and in runs long enough to grow the key table as the left
// side probes it. Each such row gets f of the empty group (ΠA's empty payload)
// as Eval gives, and f is applied once per distinct left key, present or
// absent: ΠA charges the budget even for no rows, so each distinct absent key
// adds one consultation of the fault hook, and a repeated one adds none.
func TestGroupBinaryAbsentLeftKeys(t *testing.T) {
	rel := func(attr string, keys ...int) constOp {
		ts := make(value.TupleSeq, len(keys))
		for i, k := range keys {
			ts[i] = value.Tuple{attr: value.Int(int64(k)), "B": value.Int(int64(i))}
		}
		return constOp{ts: ts, attrs: []string{attr, "B"}}
	}
	gb := func(left Op) GroupBinary {
		return GroupBinary{L: left, R: rel("A2", 1, 2, 2), G: "g", LAttrs: []string{"A1"}, RAttrs: []string{"A2"},
			Theta: value.CmpEq, F: SFProject{Attrs: []string{"A2", "B"}}}
	}
	many := make([]int, 0, 400)
	for k := 0; k < 200; k++ {
		many = append(many, 1000+k, 1000+k/2)
	}
	for name, op := range map[string]Op{
		"absent keys":       gb(rel("A1", 1, 99, 2, 98, 99, 1, 98, 97)),
		"many absent keys":  gb(rel("A1", many...)),
		"only absent keys":  gb(rel("A1", 7, 8, 7)),
		"empty right input": GroupBinary{L: rel("A1", 1, 1), R: constOp{attrs: []string{"A2", "B"}}, G: "g", LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpEq, F: SFProject{Attrs: []string{"A2", "B"}}},
	} {
		diffOp(t, name, op)
	}

	got, _, _ := runNativeRows(gb(rel("A1", 1, 99, 2, 98, 99, 1, 98, 97)))
	for _, tp := range got {
		if k := tp["A1"].(value.Int); k > 2 {
			if g, ok := tp["g"].(value.RowSeq); !ok || g.Len() != 0 {
				t.Errorf("left key %d, absent on the right: g = %v, want the empty payload", k, tp["g"])
			}
		}
	}

	groupCharges := func(op Op) int {
		n := Resolve(native(op))
		ctx := NewCtx(nil)
		ctx.Budget = NewBudget(0, 0)
		charges := 0
		ctx.Budget.SetFaultHook(func(point string) bool {
			if point == TripGroup {
				charges++
			}
			return false
		})
		drainRows(ctx, TripBuild, n.open(ctx, nil), nil)
		return charges
	}
	present := groupCharges(gb(rel("A1", 1, 2)))
	if absent := groupCharges(gb(rel("A1", 1, 99, 2, 98, 99, 1, 98, 97))); absent-present != 3 {
		t.Errorf("three distinct absent left keys made %d group charges more than none, want 3", absent-present)
	}
}

// TestPartitionedRowsXiOutput: Ξ over a hash-partitioned subtree emits the
// same output stream on both engines (the engine-level Ξ-output equality
// mirrored at operator level).
func TestPartitionedRowsXiOutput(t *testing.T) {
	quickCheck(t, "partitioned-rows-Ξ", func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := randRel(rng, []string{"A1", "C"}, 10, 4)
		e2 := randRel(rng, []string{"A2", "B"}, 10, 4)
		for name, inner := range hashFamily(e1, e2, nil) {
			attr := "A1"
			if name == "Γ-unary" {
				attr = "A2"
			}
			xi := XiSimple{In: inner, Cmds: []Command{
				LitCmd("<"), ExprCmd(Var{Name: attr}), LitCmd(">"),
			}}
			ctxE := NewCtx(nil)
			xi.Eval(ctxE, nil)
			n := Resolve(native(xi))
			if !n.OK {
				t.Errorf("Ξ over %s: does not resolve", name)
				return false
			}
			ctxR := NewCtx(nil)
			drainRows(ctxR, TripBuild, n.open(ctxR, nil), nil)
			if ctxE.OutString() != ctxR.OutString() {
				t.Errorf("Ξ over %s: output differs\neval:   %.200q\nnative: %.200q",
					name, ctxE.OutString(), ctxR.OutString())
				return false
			}
		}
		return true
	})
}

// TestPartitionedRowsSemiAntiCollidingNames: ⋉/▷ emit left rows but compile
// their predicate against l ◦ r, so inputs sharing an attribute name do not
// resolve — the plan is refused, never run on a mis-slotted layout.
func TestPartitionedRowsSemiAntiCollidingNames(t *testing.T) {
	e1 := constOp{ts: value.TupleSeq{
		{"A1": value.Int(1), "X": value.Int(1)},
		{"A1": value.Int(2), "X": value.Int(2)},
	}, attrs: []string{"A1", "X"}}
	e2 := constOp{ts: value.TupleSeq{
		{"A2": value.Int(1), "X": value.Int(9)},
	}, attrs: []string{"A2", "X"}}
	for name, op := range map[string]Op{
		"⋉": SemiJoin{L: e1, R: e2, Pred: eqCmp("A1", "A2")},
		"▷": AntiJoin{L: e1, R: e2, Pred: eqCmp("A1", "A2")},
	} {
		if _, _, ok := runNativeRows(op); ok {
			t.Errorf("%s over inputs sharing X resolved", name)
		}
	}
}
