package algebra

import (
	"testing"

	"nalquery/internal/value"
)

// operatorInventory builds one instance of every unary and every binary
// operator over an empty first input (and, for the binary ones, a non-empty
// second).
func operatorInventory() (unary, binary map[string]Op) {
	empty := constOp{attrs: []string{"A1", "C"}}
	nonEmpty := constOp{
		ts:    value.TupleSeq{{"A2": value.Int(1), "B": value.Int(2)}},
		attrs: []string{"A2", "B"},
	}
	eq := CmpExpr{L: Var{Name: "A1"}, R: Var{Name: "A2"}, Op: value.CmpEq}
	truth := ConstVal{V: value.Bool(true)}

	unary = map[string]Op{
		"σ":        Select{In: empty, Pred: truth},
		"Π":        Project{In: empty, Names: []string{"A1"}},
		"Π̄":       ProjectDrop{In: empty, Names: []string{"C"}},
		"Π-rename": ProjectRename{In: empty, Pairs: []Rename{{New: "X", Old: "A1"}}},
		"χ":        Map{In: empty, Attr: "g", E: truth},
		"Υ":        UnnestMap{In: empty, Attr: "x", E: Var{Name: "A1"}},
		"Υ-at":     UnnestMap{In: empty, Attr: "x", PosAttr: "i", E: Var{Name: "A1"}},
		"Γ-unary":  GroupUnary{In: empty, G: "g", By: []string{"A1"}, Theta: value.CmpEq, F: SFCount{}},
		"µD":       UnnestDistinct{In: empty, Attr: "A1"},
		"Ξ":        XiSimple{In: empty, Cmds: []Command{{IsLit: true, Lit: "x"}}},
		"Sort":     Sort{In: empty, By: []string{"A1"}},
	}
	binary = map[string]Op{
		"⋉":        SemiJoin{L: empty, R: nonEmpty, Pred: eq},
		"▷":        AntiJoin{L: empty, R: nonEmpty, Pred: eq},
		"⟕":        OuterJoin{L: empty, R: nonEmpty, Pred: eq, G: "B", Default: SFCount{}},
		"Γ-binary": GroupBinary{L: empty, R: nonEmpty, G: "g", LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpEq, F: SFCount{}},
	}
	return unary, binary
}

// The recursive definitions of Sec. 2 fix the empty-input behaviour of
// every operator: unary operators map ε to ε, and binary operators map an
// empty left operand to ε. This table test pins that behaviour across the
// whole operator inventory.
func TestEmptyInputConventions(t *testing.T) {
	unary, binaryEmptyLeft := operatorInventory()
	eq := CmpExpr{L: Var{Name: "A1"}, R: Var{Name: "A2"}, Op: value.CmpEq}
	for name, op := range unary {
		if got := op.Eval(NewCtx(nil), nil); len(got) != 0 {
			t.Errorf("%s(ε) produced %d tuples, want ε", name, len(got))
		}
	}

	for name, op := range binaryEmptyLeft {
		if got := op.Eval(NewCtx(nil), nil); len(got) != 0 {
			t.Errorf("%s(ε, e2) produced %d tuples, want ε", name, len(got))
		}
	}

	// Empty RIGHT operands: the left side still flows where the definition
	// says so.
	left := constOp{
		ts:    value.TupleSeq{{"A1": value.Int(1), "C": value.Int(0)}},
		attrs: []string{"A1", "C"},
	}
	emptyRight := constOp{attrs: []string{"A2", "B"}}
	if got := (SemiJoin{L: left, R: emptyRight, Pred: eq}).Eval(NewCtx(nil), nil); len(got) != 0 {
		t.Errorf("⋉ with empty right produced %d tuples, want ε", len(got))
	}
	if got := (AntiJoin{L: left, R: emptyRight, Pred: eq}).Eval(NewCtx(nil), nil); len(got) != 1 {
		t.Errorf("▷ with empty right produced %d tuples, want the full left side", len(got))
	}
	oj := OuterJoin{L: left, R: emptyRight, Pred: eq, G: "B", Default: SFCount{}}
	got := oj.Eval(NewCtx(nil), nil)
	if len(got) != 1 {
		t.Fatalf("⟕ with empty right produced %d tuples, want 1 padded tuple", len(got))
	}
	if c, ok := got[0]["B"].(value.Int); !ok || c != 0 {
		t.Errorf("⟕ default: g = %v, want count(ε) = 0", got[0]["B"])
	}
	gb := GroupBinary{L: left, R: emptyRight, G: "g",
		LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpEq, F: SFCount{}}
	got = gb.Eval(NewCtx(nil), nil)
	if len(got) != 1 {
		t.Fatalf("Γ-binary with empty right produced %d tuples, want 1", len(got))
	}
	if c, ok := got[0]["g"].(value.Int); !ok || c != 0 {
		t.Errorf("Γ-binary empty group: g = %v, want 0", got[0]["g"])
	}
}
