package algebra

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

func evalExpr(t *testing.T, e Expr, env value.Tuple) value.Value {
	t.Helper()
	return e.Eval(NewCtx(nil), env)
}

func TestVarAndConst(t *testing.T) {
	env := value.Tuple{"x": value.Int(7)}
	if got := evalExpr(t, Var{Name: "x"}, env); !value.DeepEqual(got, value.Int(7)) {
		t.Fatalf("Var: %v", got)
	}
	if got := evalExpr(t, Var{Name: "missing"}, env); got != nil {
		t.Fatalf("missing var must be nil: %v", got)
	}
	if got := evalExpr(t, ConstVal{V: value.Str("s")}, nil); !value.DeepEqual(got, value.Str("s")) {
		t.Fatalf("Const: %v", got)
	}
}

func TestDocExprCountsAccesses(t *testing.T) {
	d := dom.MustParseString(`<r/>`, "a.xml")
	ctx := NewCtx(map[string]*dom.Document{"a.xml": d})
	e := Doc{URI: "a.xml"}
	v := e.Eval(ctx, nil)
	if nv, ok := v.(value.NodeVal); !ok || nv.Node != d.Root {
		t.Fatalf("doc(): %v", v)
	}
	e.Eval(ctx, nil)
	if ctx.Stats.DocAccesses != 2 {
		t.Fatalf("DocAccesses = %d", ctx.Stats.DocAccesses)
	}
	if _, ok := (Doc{URI: "missing.xml"}).Eval(ctx, nil).(value.Null); !ok {
		t.Fatalf("missing doc must be NULL")
	}
}

func TestPathOfExpr(t *testing.T) {
	d := dom.MustParseString(`<r><a>1</a><a>2</a></r>`, "a.xml")
	env := value.Tuple{"d": value.NodeVal{Node: d.Root}}
	e := PathOf{Input: Var{Name: "d"}, Path: xpath.MustParse("//a")}
	out := evalExpr(t, e, env).(value.Seq)
	if len(out) != 2 {
		t.Fatalf("path: %v", out)
	}
}

func TestLogicalExprs(t *testing.T) {
	tr := ConstVal{V: value.Bool(true)}
	fa := ConstVal{V: value.Bool(false)}
	if !value.EffectiveBool(evalExpr(t, AndExpr{L: tr, R: tr}, nil)) ||
		value.EffectiveBool(evalExpr(t, AndExpr{L: tr, R: fa}, nil)) {
		t.Fatalf("and wrong")
	}
	if !value.EffectiveBool(evalExpr(t, OrExpr{L: fa, R: tr}, nil)) ||
		value.EffectiveBool(evalExpr(t, OrExpr{L: fa, R: fa}, nil)) {
		t.Fatalf("or wrong")
	}
	if value.EffectiveBool(evalExpr(t, NotExpr{E: tr}, nil)) {
		t.Fatalf("not wrong")
	}
}

func TestBuiltins(t *testing.T) {
	seq := value.Seq{value.Str("10"), value.Str("3"), value.Str("7.5")}
	b := value.NodeVal{Node: dom.MustParseString(`<b t="&lt;q">x &amp; <i>y</i></b>`, "b.xml").Root.Descendants("b", nil)[0]}
	cases := []struct {
		fn   string
		args []value.Value
		want value.Value
	}{
		{"count", []value.Value{seq}, value.Int(3)},
		{"count", []value.Value{value.Null{}}, value.Int(0)},
		{"count", []value.Value{value.Str("x")}, value.Int(1)},
		{"min", []value.Value{seq}, value.Float(3)},
		{"max", []value.Value{seq}, value.Float(10)},
		{"sum", []value.Value{seq}, value.Float(20.5)},
		{"avg", []value.Value{value.Seq{value.Int(2), value.Int(4)}}, value.Float(3)},
		{"sum", []value.Value{value.Seq{}}, value.Int(0)},
		{"min", []value.Value{value.Seq{}}, value.Null{}},
		{"min", []value.Value{value.Seq{value.Str("b"), value.Str("a")}}, value.Str("a")},
		{"max", []value.Value{value.Seq{value.Str("b"), value.Str("a")}}, value.Str("b")},
		{"exists", []value.Value{value.Seq{}}, value.Bool(false)},
		{"exists", []value.Value{value.Str("x")}, value.Bool(true)},
		{"empty", []value.Value{value.Seq{}}, value.Bool(true)},
		{"not", []value.Value{value.Bool(true)}, value.Bool(false)},
		{"true", nil, value.Bool(true)},
		{"false", nil, value.Bool(false)},
		{"string", []value.Value{value.Int(5)}, value.Str("5")},
		{"string", []value.Value{value.Null{}}, value.Str("")},
		{"decimal", []value.Value{value.Str(" 65.95 ")}, value.Float(65.95)},
		{"decimal", []value.Value{value.Str("abc")}, value.Null{}},
		{"number", []value.Value{value.Str("2")}, value.Float(2)},
		{"contains", []value.Value{value.Str("SuciuD."), value.Str("Suciu")}, value.Bool(true)},
		{"contains", []value.Value{value.Str("Stevens"), value.Str("Suciu")}, value.Bool(false)},
		{"concat", []value.Value{value.Str("a"), value.Int(1)}, value.Str("a1")},
		// concat's result is text, not markup: its arguments' atoms unescaped,
		// an element's string value, a sequence's atoms one after another.
		{"concat", []value.Value{value.Str("a<"), value.Str("b")}, value.Str("a<b")},
		{"concat", []value.Value{b, value.Str("!"), value.Seq{value.Str("&"), value.Int(2)}}, value.Str("x & y!&2")},
		{"concat", []value.Value{value.Str("<"), value.NodeVal{Node: b.Node.Attr("t")}}, value.Str("<<q")},
		{"string", []value.Value{b}, value.Str("x & y")},
		{"string-length", []value.Value{evalBuiltin("concat", []value.Value{value.Str("<"), value.Str("a")})}, value.Int(2)},
	}
	for _, c := range cases {
		got := evalBuiltin(c.fn, c.args)
		if !value.DeepEqual(got, c.want) {
			t.Errorf("%s(%v) = %v, want %v", c.fn, c.args, got, c.want)
		}
	}
}

func TestDistinctValuesBuiltin(t *testing.T) {
	in := value.Seq{value.Str("a"), value.Str("b"), value.Str("a"), value.Str("1"), value.Int(1)}
	out := evalBuiltin("distinct-values", []value.Value{in}).(value.Seq)
	if len(out) != 3 { // a, b, 1 ("1" and 1 coincide numerically)
		t.Fatalf("distinct-values: %v", out)
	}
	// Deterministic and idempotent.
	out2 := evalBuiltin("distinct-values", []value.Value{out}).(value.Seq)
	if !value.DeepEqual(value.Value(out), value.Value(out2)) {
		t.Fatalf("distinct-values not idempotent: %v vs %v", out, out2)
	}
}

func TestAggregatesOverTupleSeq(t *testing.T) {
	// Aggregates over nested query results (tuple sequences).
	ts := value.TupleSeq{{"c": value.Float(10)}, {"c": value.Float(5)}}
	if got := evalBuiltin("min", []value.Value{ts}); !value.DeepEqual(got, value.Float(5)) {
		t.Fatalf("min over tuples: %v", got)
	}
	if got := evalBuiltin("count", []value.Value{ts}); !value.DeepEqual(got, value.Int(2)) {
		t.Fatalf("count over tuples: %v", got)
	}
}

func TestSeqFuncs(t *testing.T) {
	ctx := NewCtx(nil)
	ts := value.TupleSeq{
		{"b": value.Int(4), "k": value.Int(1)},
		{"b": value.Int(6), "k": value.Int(2)},
	}
	if got := (SFCount{}).Apply(ctx, nil, ts); !value.DeepEqual(got, value.Int(2)) {
		t.Fatalf("count: %v", got)
	}
	if got := (SFCount{}).Apply(ctx, nil, nil); !value.DeepEqual(got, value.Int(0)) {
		t.Fatalf("count(ε): %v", got)
	}
	if got := (SFAgg{Fn: "sum", Attr: "b"}).Apply(ctx, nil, ts); !value.DeepEqual(got, value.Float(10)) {
		t.Fatalf("sum: %v", got)
	}
	if got := (SFAgg{Fn: "min", Attr: "b"}).Apply(ctx, nil, nil); !value.DeepEqual(got, value.Null{}) {
		t.Fatalf("min(ε): %v", got)
	}
	proj := (SFProject{Attrs: []string{"b"}}).Apply(ctx, nil, ts).(value.TupleSeq)
	if len(proj) != 2 || len(proj[0]) != 1 {
		t.Fatalf("Π: %v", proj)
	}
	filt := SFFiltered{
		Pred:  CmpExpr{L: Var{Name: "b"}, R: ConstVal{V: value.Int(5)}, Op: value.CmpGt},
		Inner: SFCount{},
	}
	if got := filt.Apply(ctx, nil, ts); !value.DeepEqual(got, value.Int(1)) {
		t.Fatalf("count∘σ: %v", got)
	}
}

func TestNestedApplyCountsEvals(t *testing.T) {
	ctx := NewCtx(nil)
	na := NestedApply{F: SFCount{}, Plan: relR2()}
	na.Eval(ctx, nil)
	na.Eval(ctx, nil)
	if ctx.Stats.NestedEvals != 2 {
		t.Fatalf("NestedEvals = %d", ctx.Stats.NestedEvals)
	}
}

func TestQuantifierExprs(t *testing.T) {
	rng := Project{In: relR2(), Names: []string{"A2"}}
	// ∃x: x = 2
	ex := ExistsQ{Var: "x", RangeAttr: "A2", Range: rng,
		Pred: CmpExpr{L: Var{Name: "x"}, R: ConstVal{V: value.Int(2)}, Op: value.CmpEq}}
	if !value.EffectiveBool(evalExpr(t, ex, nil)) {
		t.Fatalf("∃ x=2 must hold")
	}
	// ∀x: x ≤ 2 holds; ∀x: x < 2 fails.
	fa := ForallQ{Var: "x", RangeAttr: "A2", Range: rng,
		Pred: CmpExpr{L: Var{Name: "x"}, R: ConstVal{V: value.Int(2)}, Op: value.CmpLe}}
	if !value.EffectiveBool(evalExpr(t, fa, nil)) {
		t.Fatalf("∀ x<=2 must hold")
	}
	fa2 := ForallQ{Var: "x", RangeAttr: "A2", Range: rng,
		Pred: CmpExpr{L: Var{Name: "x"}, R: ConstVal{V: value.Int(2)}, Op: value.CmpLt}}
	if value.EffectiveBool(evalExpr(t, fa2, nil)) {
		t.Fatalf("∀ x<2 must fail")
	}
	// Quantifiers over the empty range: ∃ false, ∀ true.
	empty := Project{In: constOp{attrs: []string{"A2"}}, Names: []string{"A2"}}
	if value.EffectiveBool(evalExpr(t, ExistsQ{Var: "x", RangeAttr: "A2", Range: empty, Pred: ConstVal{V: value.Bool(true)}}, nil)) {
		t.Fatalf("∃ over ε must be false")
	}
	if !value.EffectiveBool(evalExpr(t, ForallQ{Var: "x", RangeAttr: "A2", Range: empty, Pred: ConstVal{V: value.Bool(false)}}, nil)) {
		t.Fatalf("∀ over ε must be true")
	}
}

func TestBindTuplesExpr(t *testing.T) {
	e := BindTuples{E: ConstVal{V: value.Seq{value.Int(1), value.Int(2)}}, Attr: "a'"}
	out := evalExpr(t, e, nil).(value.TupleSeq)
	if len(out) != 2 || !value.DeepEqual(out[0]["a'"], value.Int(1)) {
		t.Fatalf("e[a]: %v", out)
	}
}

// TestFreeVars pins F(e) for every expression form: the table names each
// form of exprForms at least once, plus a sequence function's predicate
// chain and a quantifier whose range reads an outer variable named like
// the one it binds.
func TestFreeVars(t *testing.T) {
	a, b, c := Var{Name: "a"}, Var{Name: "b"}, Var{Name: "c"}
	readsOuter := Select{In: relR2(), Pred: CmpExpr{L: Var{Name: "outer"}, R: Var{Name: "A2"}, Op: value.CmpEq}}
	readsX := Select{In: relR2(), Pred: CmpExpr{L: Var{Name: "x"}, R: Var{Name: "A2"}, Op: value.CmpEq}}
	xLtC := CmpExpr{L: Var{Name: "x"}, R: c, Op: value.CmpLt}
	cases := []struct {
		e    Expr
		want []string
	}{
		{a, []string{"a"}},
		{ConstVal{V: value.Int(1)}, nil},
		{Param{Name: "a", Idx: 0}, nil},
		{Doc{URI: "bib.xml"}, nil},
		{PathOf{Input: a, Path: xpath.MustParse("title")}, []string{"a"}},
		{CmpExpr{L: a, R: b, Op: value.CmpEq}, []string{"a", "b"}},
		{InExpr{Item: a, Seq: b}, []string{"a", "b"}},
		{AndExpr{L: a, R: b}, []string{"a", "b"}},
		{OrExpr{L: a, R: b}, []string{"a", "b"}},
		{NotExpr{E: a}, []string{"a"}},
		{CondExpr{If: a, Then: b, Else: c}, []string{"a", "b", "c"}},
		{ArithExpr{L: a, R: b, Op: '+'}, []string{"a", "b"}},
		{Call{Fn: "concat", Args: []Expr{a, b, c}}, []string{"a", "b", "c"}},
		{BindTuples{E: a, Attr: "a'"}, []string{"a"}},
		// The plan's own attributes are bound inside it.
		{NestedApply{F: SFCount{}, Plan: readsOuter}, []string{"outer"}},
		// Every predicate of an f ∘ σp chain counts.
		{NestedApply{F: SFFiltered{Pred: a, Inner: SFFiltered{Pred: b, Inner: SFCount{}}}, Plan: relR2()},
			[]string{"a", "b"}},
		// The bound variable is not free in the predicate.
		{ExistsQ{Var: "x", RangeAttr: "A2", Range: readsOuter, Pred: xLtC}, []string{"c", "outer"}},
		{ForallQ{Var: "x", RangeAttr: "A2", Range: readsOuter, Pred: xLtC}, []string{"c", "outer"}},
		// ... but an outer x the range reads is.
		{ExistsQ{Var: "x", RangeAttr: "A2", Range: readsX, Pred: xLtC}, []string{"c", "x"}},
		{ForallQ{Var: "x", RangeAttr: "A2", Range: readsX, Pred: xLtC}, []string{"c", "x"}},
		{AndExpr{L: CmpExpr{L: a, R: b, Op: value.CmpEq},
			R: ExistsQ{Var: "x", RangeAttr: "A2", Range: relR2(), Pred: xLtC}}, []string{"a", "b", "c"}},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[fmt.Sprintf("%T", tc.e)] = true
		fv := map[string]bool{}
		FreeVars(tc.e, fv)
		if got := slices.Sorted(maps.Keys(fv)); !slices.Equal(got, tc.want) {
			t.Errorf("F(%s) = %v, want %v", tc.e, got, tc.want)
		}
	}
	for _, f := range exprForms {
		if name := fmt.Sprintf("%T", f); !covered[name] {
			t.Errorf("no case for %s", name)
		}
	}
}

func TestOpFreeVars(t *testing.T) {
	// A nested plan referencing an outer attribute.
	plan := Select{
		In:   relR2(),
		Pred: CmpExpr{L: Var{Name: "outer"}, R: Var{Name: "A2"}, Op: value.CmpEq},
	}
	fv := FreeVarsOf(plan)
	if len(fv) != 1 || fv[0] != "outer" {
		t.Fatalf("free vars: %v", fv)
	}
}

// printed is what WriteValue writes for v.
func printed(v value.Value) string {
	var sb strings.Builder
	WriteValue(&sb, v)
	return sb.String()
}

// TestPrintValue: the serialized form of each kind of value.
func TestPrintValue(t *testing.T) {
	d := dom.MustParseString(`<r><t a="v">x</t></r>`, "p.xml")
	el := d.RootElement().FirstChildElement("t")
	cases := []struct {
		v    value.Value
		want string
	}{
		{value.Null{}, ""},
		{value.Str("a<b"), "a&lt;b"},
		{value.Int(3), "3"},
		{value.NodeVal{Node: el}, `<t a="v">x</t>`},
		{value.NodeVal{Node: el.Attr("a")}, "v"},
		{value.Seq{value.Int(1), value.Int(2)}, "12"},
		{value.TupleSeq{{"t": value.NodeVal{Node: el}}}, `<t a="v">x</t>`},
	}
	for _, c := range cases {
		if got := printed(c.v); got != c.want {
			t.Errorf("WriteValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestAttrText: an attribute value is its atoms' texts joined by one space;
// one atom — a node, its text, a string — is read without allocating.
func TestAttrText(t *testing.T) {
	d := dom.MustParseString(`<r><t a="v">x<u>y</u></t><t>z</t></r>`, "p.xml")
	t1 := d.RootElement().FirstChildElement("t")
	t2 := t1.NextSibling()
	cases := []struct {
		v    value.Value
		want string
	}{
		{value.Null{}, ""},
		{value.Str("a b"), "a b"},
		{value.Int(3), "3"},
		{value.NodeVal{Node: t1}, "xy"},
		{value.NodeVal{Node: t1.Attr("a")}, "v"},
		{value.Seq{value.NodeVal{Node: t1}, value.NodeVal{Node: t2}, value.Int(4)}, "xy z 4"},
		{value.TupleSeq{{"t": value.NodeVal{Node: t1}}, {"t": value.Str("w")}}, "xy w"},
	}
	for _, c := range cases {
		if got := attrText(c.v); got != c.want {
			t.Errorf("attrText(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	for _, v := range []value.Value{value.NodeVal{Node: t1.Attr("a")}, value.NodeText{Node: t2}, value.Str("s")} {
		if n := testing.AllocsPerRun(20, func() { _ = attrText(v) }); n != 0 {
			t.Errorf("attrText(%v) allocates %v times", v, n)
		}
	}
}

func TestExplainShowsNestedPlans(t *testing.T) {
	m := Map{
		In:   relR1(),
		Attr: "g",
		E:    NestedApply{F: SFCount{}, Plan: Select{In: relR2(), Pred: eqCmp("A1", "A2")}},
	}
	out := Explain(m)
	if !strings.Contains(out, "nested:") || !strings.Contains(out, "σ[A1 = A2]") {
		t.Fatalf("explain:\n%s", out)
	}
	q := Select{In: relR1(), Pred: ExistsQ{Var: "x", RangeAttr: "A2",
		Range: Project{In: relR2(), Names: []string{"A2"}}, Pred: ConstVal{V: value.Bool(true)}}}
	out2 := Explain(q)
	if !strings.Contains(out2, "∃-range:") {
		t.Fatalf("explain quantifier:\n%s", out2)
	}
}

func TestStringsAreInformative(t *testing.T) {
	// Every operator and expression has a printable form.
	ops := []Op{
		Singleton{}, Select{In: relR1(), Pred: eqCmp("A1", "A2")},
		Project{In: relR1(), Names: []string{"A1"}},
		ProjectDrop{In: relR1(), Names: []string{"A1"}},
		ProjectRename{In: relR1(), Pairs: []Rename{{New: "B", Old: "A1"}}},
		Map{In: relR1(), Attr: "x", E: ConstVal{V: value.Int(1)}},
		UnnestMap{In: relR1(), Attr: "x", E: ConstVal{V: value.Int(1)}},
		SemiJoin{L: relR1(), R: relR2(), Pred: eqCmp("A1", "A2")},
		AntiJoin{L: relR1(), R: relR2(), Pred: eqCmp("A1", "A2")},
		OuterJoin{L: relR1(), R: relR2(), Pred: eqCmp("A1", "A2"), G: "g", Default: SFCount{}},
		GroupUnary{In: relR2(), G: "g", By: []string{"A2"}, Theta: value.CmpEq, F: SFCount{}},
		GroupBinary{L: relR1(), R: relR2(), G: "g", LAttrs: []string{"A1"}, RAttrs: []string{"A2"}, Theta: value.CmpEq, F: SFCount{}},
		UnnestDistinct{In: relR2(), Attr: "g"},
		XiSimple{In: relR1(), Cmds: []Command{LitCmd("x")}},
		XiGroup{In: relR2(), By: []string{"A2"}, S2: []Command{ExprCmd(Var{Name: "B"})}},
	}
	for _, op := range ops {
		if op.String() == "" {
			t.Errorf("%T has empty String()", op)
		}
	}
}
