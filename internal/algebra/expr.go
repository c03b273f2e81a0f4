// Package algebra implements NAL, the order-preserving nested algebra of the
// paper (Sec. 2), together with its evaluation engine.
//
// NAL operators work on ordered sequences of unordered tuples
// (value.TupleSeq). Expressions in operator subscripts may contain nested
// algebraic expressions; evaluating a nested expression per outer tuple is
// exactly the nested-loop strategy the unnesting equivalences of
// internal/core remove.
package algebra

import (
	"fmt"
	"strings"

	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

// StringWriter is the output sink of the Ξ result-construction operators
// (satisfied by strings.Builder, bufio.Writer, …). Write errors are the
// sink's to track: operators stream fire-and-forget, and callers that wrap
// files flush and check at the end (see Results.WriteXML).
type StringWriter interface {
	WriteString(s string) (int, error)
}

// ResultSink receives the result-construction stream of the Ξ operators as
// discrete items instead of serialized text: literal markup fragments and
// the typed values of expression commands. It is the yield boundary the
// public Results iterator consumes — serialization becomes one sink among
// others rather than the only way out of the engine.
type ResultSink interface {
	// EmitLit receives a literal markup fragment of a Ξ command list.
	EmitLit(s string)
	// EmitValue receives the typed value of a Ξ expression command.
	EmitValue(v value.Value)
}

// Ctx is the evaluation context shared by a plan execution.
type Ctx struct {
	// Docs resolves document URIs for the doc()/document() functions.
	Docs map[string]*dom.Document
	// Out receives the output stream of the Ξ result-construction operators.
	Out StringWriter
	// Sink, when non-nil, receives the Ξ stream as typed items instead of
	// serialized text on Out (see EmitLit/EmitValue).
	Sink ResultSink
	// Stats accumulates execution counters.
	Stats Stats
	// Cards is read by nothing. It stays only because benchmark/layers.go
	// assigns it, until ROADMAP item 1(b) frees the harness.
	Cards any
	// Params is the per-run binding table of external variables: Param
	// expressions read their value by slot index. The slice is fixed for
	// the lifetime of one run (bindings never change mid-execution).
	Params []value.Value
	// Budget, when non-nil, is the run's resource governor: materialization
	// points (breaker drains, scan producers, dedup tables, Ξ emission)
	// charge it and the first charge past a limit aborts the run with a
	// typed ResourceTrip (see budget.go). nil disables all accounting.
	Budget *Budget

	// done, when non-nil, is the run's cancellation signal (a
	// context.Context Done channel). Scans and pipeline breakers poll it
	// through Cancelled and terminate the pipeline early.
	done      <-chan struct{}
	cancelled bool
	tick      uint
}

// EmitLit routes a Ξ literal to the sink, or to the serialized output
// stream when no sink is attached. Emission is a charge point: output
// accumulates in item queues, spill buffers and in-memory builders, so the
// emitted bytes count against the run's budget.
func (c *Ctx) EmitLit(s string) {
	c.ChargeBytes(TripSerialize, len(s))
	if c.Sink != nil {
		c.Sink.EmitLit(s)
		return
	}
	c.Out.WriteString(s)
}

// EmitValue routes a Ξ expression value to the sink, or serializes it onto
// the output stream when no sink is attached. Values charge a flat word
// count (their serialized size is not cheaply known).
func (c *Ctx) EmitValue(v value.Value) {
	if c.Budget != nil {
		c.charge(TripSerialize, 0, emitValueFlatBytes)
	}
	if c.Sink != nil {
		c.Sink.EmitValue(v)
		return
	}
	WriteValue(c.Out, v)
}

// emitAttr writes v as attribute-value text, escaped for an attribute: markup
// for a sink, since the text is no longer the value. It charges what
// EmitValue charges.
func (c *Ctx) emitAttr(v value.Value) {
	if c.Budget != nil {
		c.charge(TripSerialize, 0, emitValueFlatBytes)
	}
	s := dom.EscapeAttr(attrText(v))
	if c.Sink != nil {
		c.Sink.EmitLit(s)
		return
	}
	c.Out.WriteString(s)
}

// ParamVal returns the bound value of parameter slot i; an unbound or
// out-of-range slot reads as the empty sequence (the public API validates
// bindings before execution, so this is a defensive default, never an
// error path).
func (c *Ctx) ParamVal(i int) value.Value {
	if i < 0 || i >= len(c.Params) || c.Params[i] == nil {
		return value.Null{}
	}
	return c.Params[i]
}

// SetDone wires a cancellation signal (typically ctx.Done()) into the
// evaluation context. A nil channel disables cancellation checks.
func (c *Ctx) SetDone(done <-chan struct{}) { c.done = done }

// cancelCheckMask paces the cancellation poll: hot per-tuple loops pay a
// counter increment and poll the channel once every mask+1 calls, keeping
// the guard overhead far below measurement noise while still bounding how
// much work runs after a cancel.
const cancelCheckMask = 63

// Cancelled polls the run's cancellation signal. The check is paced (one
// channel poll per cancelCheckMask+1 calls), so callers may invoke it per
// tuple; once it has observed the cancel it stays true.
func (c *Ctx) Cancelled() bool {
	if c.cancelled {
		return true
	}
	if c.done == nil {
		return false
	}
	c.tick++
	if c.tick&cancelCheckMask != 0 {
		return false
	}
	select {
	case <-c.done:
		c.cancelled = true
	default:
	}
	return c.cancelled
}

// Stats holds execution counters used by the experiment reports.
type Stats struct {
	// DocAccesses counts evaluations of doc()/document() — each one starts a
	// fresh traversal of a stored document, the analogue of the paper's
	// "scans over the input document".
	DocAccesses int64
	// NestedEvals counts evaluations of nested algebraic expressions inside
	// operator subscripts (the nested-loop iterations).
	NestedEvals int64
	// Tuples counts tuples produced by the scan operators (Υ and IndexScan).
	Tuples int64
	// IndexScans counts index-scan resolutions (one per IndexScan open):
	// scans answered from a structural or value index instead of a
	// document traversal.
	IndexScans int64
}

// NewCtx creates an evaluation context over the given documents, collecting
// result construction into an in-memory builder (retrieve it with OutString).
func NewCtx(docs map[string]*dom.Document) *Ctx {
	return &Ctx{Docs: docs, Out: &strings.Builder{}}
}

// NewCtxWriter creates an evaluation context streaming result construction
// into w instead of an in-memory builder.
func NewCtxWriter(docs map[string]*dom.Document, w StringWriter) *Ctx {
	return &Ctx{Docs: docs, Out: w}
}

// OutString returns the collected output when the context was created with
// NewCtx; for writer-backed contexts it returns the empty string.
func (c *Ctx) OutString() string {
	if sb, ok := c.Out.(*strings.Builder); ok {
		return sb.String()
	}
	return ""
}

// Expr is a scalar expression evaluable against a tuple of variable
// bindings.
type Expr interface {
	// Eval computes the expression value; env supplies the bindings of free
	// variables (F(e) ⊆ A(env)).
	Eval(ctx *Ctx, env value.Tuple) value.Value
	// String renders the expression for plan explanation.
	String() string
	// Child returns the i-th sub-expression in evaluation order, nil past the
	// last one; it allocates nothing. Nested plans and sequence functions
	// (NestedApply, the quantifier ranges) are not expressions: a traversal
	// that cares about them names those forms.
	Child(i int) Expr
	// MapChildren returns the expression with f applied to each
	// sub-expression, in the same order.
	MapChildren(f func(Expr) Expr) Expr
}

// nth is the i-th of a form's sub-expressions, nil past the last.
func nth(i int, es ...Expr) Expr {
	if i < len(es) {
		return es[i]
	}
	return nil
}

// Var references a variable/attribute binding.
type Var struct{ Name string }

// Eval implements Expr.
func (v Var) Eval(_ *Ctx, env value.Tuple) value.Value { return env[v.Name] }

func (v Var) String() string { return v.Name }

// Child and MapChildren implement Expr.
func (Var) Child(int) Expr                     { return nil }
func (v Var) MapChildren(func(Expr) Expr) Expr { return v }

// ConstVal is a literal constant.
type ConstVal struct{ V value.Value }

// Eval implements Expr.
func (c ConstVal) Eval(*Ctx, value.Tuple) value.Value { return c.V }

func (c ConstVal) String() string {
	if s, ok := c.V.(value.Str); ok {
		return fmt.Sprintf("%q", string(s))
	}
	if c.V == nil {
		return "()"
	}
	return c.V.String()
}

// Child and MapChildren implement Expr.
func (ConstVal) Child(int) Expr                     { return nil }
func (c ConstVal) MapChildren(func(Expr) Expr) Expr { return c }

// Param is a typed parameter expression: the compiled form of an XQuery
// external variable ("declare variable $x external;"). Its value comes
// from the per-run binding table on Ctx, resolved by the slot index fixed
// at prepare time — not from the tuple environment. A Param therefore has
// no free tuple variables: to the unnesting equivalences and the slot
// engine it behaves exactly like a constant whose value is supplied at run
// time, so plan alternatives are chosen once and bindings only change
// selection constants.
type Param struct {
	// Name is the external variable's name (for plan explanation).
	Name string
	// Idx is the parameter's slot in Ctx.Params, assigned in declaration
	// order at prepare time.
	Idx int
}

// Eval implements Expr.
func (p Param) Eval(ctx *Ctx, _ value.Tuple) value.Value { return ctx.ParamVal(p.Idx) }

func (p Param) String() string { return "$" + p.Name }

// Child and MapChildren implement Expr.
func (Param) Child(int) Expr                     { return nil }
func (p Param) MapChildren(func(Expr) Expr) Expr { return p }

// Doc resolves a stored document by URI (the doc()/document() function).
type Doc struct{ URI string }

// Eval implements Expr.
func (d Doc) Eval(ctx *Ctx, _ value.Tuple) value.Value { return d.root(ctx) }

// root counts one document access and returns the document's root node, empty
// when no document has the URI — what both evaluators read doc() as.
func (d Doc) root(ctx *Ctx) value.Value {
	ctx.Stats.DocAccesses++
	doc, ok := ctx.Docs[d.URI]
	if !ok {
		return value.Null{}
	}
	return value.NodeVal{Node: doc.Root}
}

func (d Doc) String() string { return fmt.Sprintf("doc(%q)", d.URI) }

// Child and MapChildren implement Expr.
func (Doc) Child(int) Expr                     { return nil }
func (d Doc) MapChildren(func(Expr) Expr) Expr { return d }

// PathOf applies an XPath to the value of Input.
type PathOf struct {
	Input Expr
	Path  xpath.Path
}

// Eval implements Expr.
func (p PathOf) Eval(ctx *Ctx, env value.Tuple) value.Value {
	return p.Path.Eval(p.Input.Eval(ctx, env))
}

func (p PathOf) String() string {
	in := p.Input.String()
	ps := p.Path.String()
	if strings.HasPrefix(ps, "//") || strings.HasPrefix(ps, "@") {
		if strings.HasPrefix(ps, "@") {
			return in + "/" + ps
		}
		return in + ps
	}
	return in + "/" + ps
}

// Child and MapChildren implement Expr.
func (p PathOf) Child(i int) Expr                   { return nth(i, p.Input) }
func (p PathOf) MapChildren(f func(Expr) Expr) Expr { p.Input = f(p.Input); return p }

// CmpExpr is a general comparison L θ R with existential semantics over
// sequences (Sec. 5.1: "a simple '=' has existential semantics in case
// either side contains a sequence").
type CmpExpr struct {
	L, R Expr
	Op   value.CmpOp
}

// Eval implements Expr.
func (c CmpExpr) Eval(ctx *Ctx, env value.Tuple) value.Value {
	return value.Bool(value.GeneralCompare(c.L.Eval(ctx, env), c.R.Eval(ctx, env), c.Op))
}

func (c CmpExpr) String() string {
	return fmt.Sprintf("%s %s %s", c.L.String(), c.Op, c.R.String())
}

// Child and MapChildren implement Expr.
func (c CmpExpr) Child(i int) Expr                   { return nth(i, c.L, c.R) }
func (c CmpExpr) MapChildren(f func(Expr) Expr) Expr { c.L, c.R = f(c.L), f(c.R); return c }

// InExpr is the membership predicate A1 ∈ a2 of Eqvs. 4 and 5: the left item
// is a member of the sequence-valued right operand.
type InExpr struct {
	Item Expr
	Seq  Expr
}

// Eval implements Expr.
func (e InExpr) Eval(ctx *Ctx, env value.Tuple) value.Value {
	return value.Bool(value.Member(e.Item.Eval(ctx, env), e.Seq.Eval(ctx, env)))
}

func (e InExpr) String() string { return fmt.Sprintf("%s ∈ %s", e.Item.String(), e.Seq.String()) }

// Child and MapChildren implement Expr.
func (e InExpr) Child(i int) Expr                   { return nth(i, e.Item, e.Seq) }
func (e InExpr) MapChildren(f func(Expr) Expr) Expr { e.Item, e.Seq = f(e.Item), f(e.Seq); return e }

// AndExpr is logical conjunction.
type AndExpr struct{ L, R Expr }

// Eval implements Expr.
func (a AndExpr) Eval(ctx *Ctx, env value.Tuple) value.Value {
	if !value.EffectiveBool(a.L.Eval(ctx, env)) {
		return value.Bool(false)
	}
	return value.Bool(value.EffectiveBool(a.R.Eval(ctx, env)))
}

func (a AndExpr) String() string { return fmt.Sprintf("(%s ∧ %s)", a.L.String(), a.R.String()) }

// Child and MapChildren implement Expr.
func (a AndExpr) Child(i int) Expr                   { return nth(i, a.L, a.R) }
func (a AndExpr) MapChildren(f func(Expr) Expr) Expr { a.L, a.R = f(a.L), f(a.R); return a }

// OrExpr is logical disjunction.
type OrExpr struct{ L, R Expr }

// Eval implements Expr.
func (o OrExpr) Eval(ctx *Ctx, env value.Tuple) value.Value {
	if value.EffectiveBool(o.L.Eval(ctx, env)) {
		return value.Bool(true)
	}
	return value.Bool(value.EffectiveBool(o.R.Eval(ctx, env)))
}

func (o OrExpr) String() string { return fmt.Sprintf("(%s ∨ %s)", o.L.String(), o.R.String()) }

// Child and MapChildren implement Expr.
func (o OrExpr) Child(i int) Expr                   { return nth(i, o.L, o.R) }
func (o OrExpr) MapChildren(f func(Expr) Expr) Expr { o.L, o.R = f(o.L), f(o.R); return o }

// NotExpr is logical negation.
type NotExpr struct{ E Expr }

// Eval implements Expr.
func (n NotExpr) Eval(ctx *Ctx, env value.Tuple) value.Value {
	return value.Bool(!value.EffectiveBool(n.E.Eval(ctx, env)))
}

func (n NotExpr) String() string { return fmt.Sprintf("¬(%s)", n.E.String()) }

// Child and MapChildren implement Expr.
func (n NotExpr) Child(i int) Expr                   { return nth(i, n.E) }
func (n NotExpr) MapChildren(f func(Expr) Expr) Expr { n.E = f(n.E); return n }

// CondExpr is the conditional expression if (If) then Then else Else; the
// condition is taken by effective boolean value, and only the selected
// branch is evaluated.
type CondExpr struct {
	If, Then, Else Expr
}

// Eval implements Expr.
func (c CondExpr) Eval(ctx *Ctx, env value.Tuple) value.Value {
	if value.EffectiveBool(c.If.Eval(ctx, env)) {
		return c.Then.Eval(ctx, env)
	}
	return c.Else.Eval(ctx, env)
}

func (c CondExpr) String() string {
	return fmt.Sprintf("if(%s; %s; %s)", c.If.String(), c.Then.String(), c.Else.String())
}

// Child and MapChildren implement Expr.
func (c CondExpr) Child(i int) Expr { return nth(i, c.If, c.Then, c.Else) }
func (c CondExpr) MapChildren(f func(Expr) Expr) Expr {
	c.If, c.Then, c.Else = f(c.If), f(c.Then), f(c.Else)
	return c
}

// ArithExpr is an arithmetic expression over atomized numeric operands
// (+, -, *, div, mod). Non-numeric or absent operands yield NULL, following
// XQuery's empty-sequence propagation.
type ArithExpr struct {
	L, R Expr
	Op   byte // '+', '-', '*', '/', '%'
}

// Eval implements Expr.
func (a ArithExpr) Eval(ctx *Ctx, env value.Tuple) value.Value {
	return evalArith(a.Op, a.L.Eval(ctx, env), a.R.Eval(ctx, env))
}

func (a ArithExpr) String() string {
	op := string(a.Op)
	if a.Op == '/' {
		op = "div"
	}
	if a.Op == '%' {
		op = "mod"
	}
	return fmt.Sprintf("(%s %s %s)", a.L.String(), op, a.R.String())
}

// Child and MapChildren implement Expr.
func (a ArithExpr) Child(i int) Expr                   { return nth(i, a.L, a.R) }
func (a ArithExpr) MapChildren(f func(Expr) Expr) Expr { a.L, a.R = f(a.L), f(a.R); return a }

// Call is a builtin function call on item values.
type Call struct {
	Fn   string
	Args []Expr
}

// Eval implements Expr.
func (c Call) Eval(ctx *Ctx, env value.Tuple) value.Value {
	args := make([]value.Value, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.Eval(ctx, env)
	}
	return evalBuiltin(c.Fn, args)
}

func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Fn, strings.Join(parts, ", "))
}

// Child and MapChildren implement Expr.
func (c Call) Child(i int) Expr { return nth(i, c.Args...) }
func (c Call) MapChildren(f func(Expr) Expr) Expr {
	args := make([]Expr, len(c.Args))
	for i, a := range c.Args {
		args[i] = f(a)
	}
	c.Args = args
	return c
}

// NestedApply applies a sequence function f to the result of a nested
// algebraic expression: the form f(σ...(e2)) that the unnesting
// equivalences' left-hand sides are made of. Its evaluation is the
// nested-loop strategy: the plan is re-evaluated for every environment it is
// invoked under.
type NestedApply struct {
	F    SeqFunc
	Plan Op
}

// Eval implements Expr.
func (n NestedApply) Eval(ctx *Ctx, env value.Tuple) value.Value {
	ctx.Stats.NestedEvals++
	ts := n.Plan.Eval(ctx, env)
	return n.F.Apply(ctx, env, ts)
}

func (n NestedApply) String() string {
	return fmt.Sprintf("%s(%s)", n.F.String(), n.Plan.String())
}

// Child and MapChildren implement Expr.
func (NestedApply) Child(int) Expr                     { return nil }
func (n NestedApply) MapChildren(func(Expr) Expr) Expr { return n }

// ExistsQ is the existential quantifier predicate
// ∃x ∈ (range) : p — the left-hand side of Eqv. 6. Range is an algebraic
// expression whose tuples carry the attribute RangeAttr (x'); for each range
// tuple, Var is bound to that attribute's value and Pred is evaluated.
type ExistsQ struct {
	Var       string
	RangeAttr string
	Range     Op
	Pred      Expr
}

// Eval implements Expr.
func (q ExistsQ) Eval(ctx *Ctx, env value.Tuple) value.Value {
	ctx.Stats.NestedEvals++
	rng := q.Range.Eval(ctx, env)
	for _, t := range rng {
		env2 := env.Copy()
		env2[q.Var] = t[q.RangeAttr]
		if value.EffectiveBool(q.Pred.Eval(ctx, env2)) {
			return value.Bool(true)
		}
	}
	return value.Bool(false)
}

func (q ExistsQ) String() string {
	return fmt.Sprintf("∃%s∈%s: %s", q.Var, q.Range.String(), q.Pred.String())
}

// Child and MapChildren implement Expr.
func (q ExistsQ) Child(i int) Expr                   { return nth(i, q.Pred) }
func (q ExistsQ) MapChildren(f func(Expr) Expr) Expr { q.Pred = f(q.Pred); return q }

// ForallQ is the universal quantifier predicate ∀x ∈ (range) : p — the
// left-hand side of Eqv. 7.
type ForallQ struct {
	Var       string
	RangeAttr string
	Range     Op
	Pred      Expr
}

// Eval implements Expr.
func (q ForallQ) Eval(ctx *Ctx, env value.Tuple) value.Value {
	ctx.Stats.NestedEvals++
	rng := q.Range.Eval(ctx, env)
	for _, t := range rng {
		env2 := env.Copy()
		env2[q.Var] = t[q.RangeAttr]
		if !value.EffectiveBool(q.Pred.Eval(ctx, env2)) {
			return value.Bool(false)
		}
	}
	return value.Bool(true)
}

func (q ForallQ) String() string {
	return fmt.Sprintf("∀%s∈%s: %s", q.Var, q.Range.String(), q.Pred.String())
}

// Child and MapChildren implement Expr.
func (q ForallQ) Child(i int) Expr                   { return nth(i, q.Pred) }
func (q ForallQ) MapChildren(f func(Expr) Expr) Expr { q.Pred = f(q.Pred); return q }
