// Package xquery implements the XQuery-subset frontend: lexer, parser and
// abstract syntax tree for the FLWR expressions, quantifiers and constructors
// the paper's queries use.
package xquery

import (
	"fmt"
	"strconv"
	"strings"

	"nalquery/internal/value"
)

// Expr is an XQuery AST expression. Every form says itself what its
// sub-expressions are, so a traversal names only the forms it treats
// specially and descends through these two methods.
type Expr interface {
	// String renders the expression in (pretty-printed, single-line) XQuery
	// syntax.
	String() string
	// Child returns the i-th sub-expression in evaluation order, nil past the
	// last one. It allocates nothing.
	Child(i int) Expr
	// MapChildren returns the expression with f applied to each
	// sub-expression, in the same order.
	MapChildren(f func(Expr) Expr) Expr
}

// Module is a parsed query module: the prolog's external-variable
// declarations plus the body expression. External variables
// ("declare variable $x external;") have no value at compile time — they
// are the parameters of a prepared query, bound per execution.
type Module struct {
	// Externals lists the declared external variable names in declaration
	// order (the order that fixes their parameter slots).
	Externals []string
	// Body is the query expression after the prolog.
	Body Expr
}

func (m *Module) String() string {
	var sb strings.Builder
	for _, v := range m.Externals {
		fmt.Fprintf(&sb, "declare variable $%s external; ", v)
	}
	sb.WriteString(m.Body.String())
	return sb.String()
}

// FLWR is a for-let-where-return expression.
type FLWR struct {
	Clauses []Clause
	Return  Expr
}

// Clause is one of ForClause, LetClause, WhereClause or OrderByClause.
type Clause interface{ clauseString() string }

// Binding binds a variable to an expression. Pos, set only on for-clause
// bindings, names the positional variable of XQuery's
// "for $x at $pos in e" form.
type Binding struct {
	Var string
	Pos string
	E   Expr
}

// ForClause iterates variables over sequences.
type ForClause struct{ Bindings []Binding }

// LetClause binds variables to values.
type LetClause struct{ Bindings []Binding }

// WhereClause filters the binding tuples.
type WhereClause struct{ Cond Expr }

// OrderSpec is one ordering key of an order by clause.
type OrderSpec struct {
	Key        Expr
	Descending bool
}

// OrderByClause is the (stable) order by clause. The paper's translation
// (Fig. 3) deliberately skips order by — it concentrates on retaining the
// input order — so this clause is an extension: it translates into an
// explicit stable Sort operator over computed sort-key attributes.
type OrderByClause struct {
	Specs []OrderSpec
	// Stable records the "stable order by" spelling; the engine's sort is
	// always stable, so the flag is informational.
	Stable bool
}

func bindingsString(kw string, bs []Binding, sep string) string {
	parts := make([]string, len(bs))
	for i, b := range bs {
		if b.Pos != "" {
			parts[i] = fmt.Sprintf("$%s at $%s %s %s", b.Var, b.Pos, sep, b.E.String())
		} else {
			parts[i] = fmt.Sprintf("$%s %s %s", b.Var, sep, b.E.String())
		}
	}
	return kw + " " + strings.Join(parts, ", ")
}

func (c ForClause) clauseString() string   { return bindingsString("for", c.Bindings, "in") }
func (c LetClause) clauseString() string   { return bindingsString("let", c.Bindings, ":=") }
func (c WhereClause) clauseString() string { return "where " + c.Cond.String() }

func (c OrderByClause) clauseString() string {
	parts := make([]string, len(c.Specs))
	for i, s := range c.Specs {
		parts[i] = s.Key.String()
		if s.Descending {
			parts[i] += " descending"
		}
	}
	kw := "order by"
	if c.Stable {
		kw = "stable order by"
	}
	return kw + " " + strings.Join(parts, ", ")
}

func (f FLWR) String() string {
	var parts []string
	for _, c := range f.Clauses {
		parts = append(parts, c.clauseString())
	}
	parts = append(parts, "return "+f.Return.String())
	return strings.Join(parts, " ")
}

// Scope walks the expression in evaluation order, which is scope order: expr
// sees every sub-expression (binding expressions, where conditions and order
// keys clause by clause, then the return expression) and bind every for/let
// binding right after its own expression — the point from which its
// variables are visible to everything that follows.
func (f FLWR) Scope(expr func(Expr), bind func(Binding)) {
	for _, c := range f.Clauses {
		switch cl := c.(type) {
		case ForClause:
			scopeBindings(cl.Bindings, expr, bind)
		case LetClause:
			scopeBindings(cl.Bindings, expr, bind)
		case WhereClause:
			expr(cl.Cond)
		case OrderByClause:
			for _, s := range cl.Specs {
				expr(s.Key)
			}
		default:
			//nal:allow-panic unreachable: Clause is sealed by clauseString and these are its four kinds
			panic(fmt.Sprintf("xquery: unknown clause %T", c))
		}
	}
	expr(f.Return)
}

func scopeBindings(bs []Binding, expr func(Expr), bind func(Binding)) {
	for _, b := range bs {
		expr(b.E)
		bind(b)
	}
}

// MapScoped is Scope for rebuilding: the result holds what expr made of each
// sub-expression and bind of each binding.
func (f FLWR) MapScoped(expr func(Expr) Expr, bind func(Binding) Binding) FLWR {
	out := FLWR{Clauses: make([]Clause, len(f.Clauses))}
	for i, c := range f.Clauses {
		switch cl := c.(type) {
		case ForClause:
			out.Clauses[i] = ForClause{Bindings: mapBindings(cl.Bindings, expr, bind)}
		case LetClause:
			out.Clauses[i] = LetClause{Bindings: mapBindings(cl.Bindings, expr, bind)}
		case WhereClause:
			out.Clauses[i] = WhereClause{Cond: expr(cl.Cond)}
		case OrderByClause:
			specs := make([]OrderSpec, len(cl.Specs))
			for j, s := range cl.Specs {
				specs[j] = OrderSpec{Key: expr(s.Key), Descending: s.Descending}
			}
			out.Clauses[i] = OrderByClause{Specs: specs, Stable: cl.Stable}
		default:
			//nal:allow-panic unreachable: Clause is sealed by clauseString and these are its four kinds
			panic(fmt.Sprintf("xquery: unknown clause %T", c))
		}
	}
	out.Return = expr(f.Return)
	return out
}

func mapBindings(bs []Binding, expr func(Expr) Expr, bind func(Binding) Binding) []Binding {
	out := make([]Binding, len(bs))
	for i, b := range bs {
		b.E = expr(b.E)
		out[i] = bind(b)
	}
	return out
}

// Child and MapChildren implement Expr.
func (f FLWR) Child(i int) (child Expr) {
	f.Scope(func(e Expr) {
		if i == 0 {
			child = e
		}
		i--
	}, func(Binding) {})
	return child
}
func (f FLWR) MapChildren(fn func(Expr) Expr) Expr {
	return f.MapScoped(fn, func(b Binding) Binding { return b })
}

// Quant is a quantified expression: some/every $Var in Range satisfies Sat.
type Quant struct {
	Every bool
	Var   string
	Range Expr
	Sat   Expr
}

func (q Quant) String() string {
	kw := "some"
	if q.Every {
		kw = "every"
	}
	return fmt.Sprintf("%s $%s in %s satisfies %s", kw, q.Var, q.Range.String(), q.Sat.String())
}

// Child and MapChildren implement Expr.
func (q Quant) Child(i int) Expr                   { return nth(i, q.Range, q.Sat) }
func (q Quant) MapChildren(f func(Expr) Expr) Expr { q.Range, q.Sat = f(q.Range), f(q.Sat); return q }

// Cond is the conditional expression if (If) then Then else Else. XQuery
// requires the else branch; the parser accepts a missing one and fills in
// the empty sequence.
type Cond struct {
	If, Then, Else Expr
}

func (c Cond) String() string {
	return fmt.Sprintf("if (%s) then %s else %s", c.If.String(), c.Then.String(), c.Else.String())
}

// Child and MapChildren implement Expr.
func (c Cond) Child(i int) Expr { return nth(i, c.If, c.Then, c.Else) }
func (c Cond) MapChildren(f func(Expr) Expr) Expr {
	c.If, c.Then, c.Else = f(c.If), f(c.Then), f(c.Else)
	return c
}

// EmptySeq is the literal empty sequence ().
type EmptySeq struct{}

func (EmptySeq) String() string { return "()" }

// Child and MapChildren implement Expr.
func (EmptySeq) Child(int) Expr                     { return nil }
func (e EmptySeq) MapChildren(func(Expr) Expr) Expr { return e }

// VarRef references a variable.
type VarRef struct{ Name string }

func (v VarRef) String() string { return "$" + v.Name }

// Child and MapChildren implement Expr.
func (VarRef) Child(int) Expr                     { return nil }
func (v VarRef) MapChildren(func(Expr) Expr) Expr { return v }

// ContextRef is the implicit context item inside a path predicate
// (e.g. the "author" in book[author = $a1] is a path from the context).
type ContextRef struct{}

func (ContextRef) String() string { return "." }

// Child and MapChildren implement Expr.
func (ContextRef) Child(int) Expr                     { return nil }
func (c ContextRef) MapChildren(func(Expr) Expr) Expr { return c }

// StrLit is a string literal.
type StrLit struct{ V string }

// String renders the literal in XQuery syntax: double-quoted, with embedded
// double quotes escaped by doubling (the parser's "" escape) — not Go %q,
// whose backslash escapes the XQuery parser would read literally.
func (s StrLit) String() string {
	return `"` + strings.ReplaceAll(s.V, `"`, `""`) + `"`
}

// Child and MapChildren implement Expr.
func (StrLit) Child(int) Expr                     { return nil }
func (s StrLit) MapChildren(func(Expr) Expr) Expr { return s }

// NumLit is a numeric literal.
type NumLit struct{ V float64 }

// String renders the literal in plain decimal notation ('f', never
// scientific): the parser only reads digits and dots, so 1e+26 would not
// round-trip.
func (n NumLit) String() string {
	if n.V == float64(int64(n.V)) {
		return strconv.FormatInt(int64(n.V), 10)
	}
	return strconv.FormatFloat(n.V, 'f', -1, 64)
}

// Child and MapChildren implement Expr.
func (NumLit) Child(int) Expr                     { return nil }
func (n NumLit) MapChildren(func(Expr) Expr) Expr { return n }

// Step is one XPath step of a path expression, optionally carrying a
// predicate (which the normalizer later moves into a where clause).
type Step struct {
	Descendant bool // true for //
	Attribute  bool // true for @name
	Name       string
	Pred       Expr // nil if none
}

func (s Step) String() string {
	var sb strings.Builder
	if s.Descendant {
		sb.WriteString("/")
	}
	sb.WriteString("/")
	if s.Attribute {
		sb.WriteString("@")
	}
	sb.WriteString(s.Name)
	if s.Pred != nil {
		sb.WriteString("[" + s.Pred.String() + "]")
	}
	return sb.String()
}

// Path applies location steps to a base expression.
type Path struct {
	Base  Expr
	Steps []Step
}

func (p Path) String() string {
	var sb strings.Builder
	sb.WriteString(parenCmp(p.Base))
	for _, s := range p.Steps {
		sb.WriteString(s.String())
	}
	return sb.String()
}

// Child implements Expr: the base, then the step predicates.
func (p Path) Child(i int) Expr {
	if i == 0 {
		return p.Base
	}
	for _, s := range p.Steps {
		if s.Pred == nil {
			continue
		}
		if i--; i == 0 {
			return s.Pred
		}
	}
	return nil
}

// MapChildren implements Expr. A path without step predicates keeps sharing
// its steps.
func (p Path) MapChildren(f func(Expr) Expr) Expr {
	p.Base = f(p.Base)
	shared := true
	for i, s := range p.Steps {
		if s.Pred == nil {
			continue
		}
		if shared {
			p.Steps, shared = append([]Step(nil), p.Steps...), false
		}
		p.Steps[i].Pred = f(s.Pred)
	}
	return p
}

// Call is a function call.
type Call struct {
	Fn   string
	Args []Expr
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

// Cmp is a general comparison.
type Cmp struct {
	L, R Expr
	Op   value.CmpOp
}

func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %s", parenCmp(c.L), c.Op, parenCmp(c.R))
}

// Child and MapChildren implement Expr.
func (c Cmp) Child(i int) Expr                   { return nth(i, c.L, c.R) }
func (c Cmp) MapChildren(f func(Expr) Expr) Expr { c.L, c.R = f(c.L), f(c.R); return c }

// nth is the i-th of a form's sub-expressions, nil past the last.
func nth(i int, es ...Expr) Expr {
	if i < len(es) {
		return es[i]
	}
	return nil
}

// parenCmp prints an operand of a comparison or arithmetic expression,
// parenthesizing nested comparisons: they only reach that position through
// explicit parentheses in the source, and reprinting them bare would
// re-associate on reparse ((0 > 0) * 0 is not 0 > (0 * 0)). The other
// binary forms (Arith, And, Or) self-parenthesize.
func parenCmp(e Expr) string {
	if _, ok := e.(Cmp); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// Arith is an arithmetic expression (+, -, *, div, mod).
type Arith struct {
	L, R Expr
	Op   byte // '+', '-', '*', '/', '%'
}

func (a Arith) String() string {
	op := string(a.Op)
	if a.Op == '/' {
		op = "div"
	}
	if a.Op == '%' {
		op = "mod"
	}
	return fmt.Sprintf("(%s %s %s)", parenCmp(a.L), op, parenCmp(a.R))
}

// Child and MapChildren implement Expr.
func (a Arith) Child(i int) Expr                   { return nth(i, a.L, a.R) }
func (a Arith) MapChildren(f func(Expr) Expr) Expr { a.L, a.R = f(a.L), f(a.R); return a }

// And is logical conjunction.
type And struct{ L, R Expr }

func (a And) String() string { return fmt.Sprintf("(%s and %s)", a.L.String(), a.R.String()) }

// Child and MapChildren implement Expr.
func (a And) Child(i int) Expr                   { return nth(i, a.L, a.R) }
func (a And) MapChildren(f func(Expr) Expr) Expr { a.L, a.R = f(a.L), f(a.R); return a }

// Or is logical disjunction.
type Or struct{ L, R Expr }

func (o Or) String() string { return fmt.Sprintf("(%s or %s)", o.L.String(), o.R.String()) }

// Child and MapChildren implement Expr.
func (o Or) Child(i int) Expr                   { return nth(i, o.L, o.R) }
func (o Or) MapChildren(f func(Expr) Expr) Expr { o.L, o.R = f(o.L), f(o.R); return o }

// Content is a piece of element-constructor content: literal text or an
// enclosed expression ({ expr }).
type Content struct {
	Text  string
	E     Expr
	IsLit bool
}

func (c Content) String() string {
	if c.IsLit {
		return c.Text
	}
	return "{ " + c.E.String() + " }"
}

// AttrCtor is an attribute constructor inside an element constructor; its
// value may mix literal text and enclosed expressions.
type AttrCtor struct {
	Name    string
	Content []Content
}

// ElemCtor is a direct element constructor.
type ElemCtor struct {
	Name    string
	Attrs   []AttrCtor
	Content []Content
}

func (e ElemCtor) String() string {
	var sb strings.Builder
	sb.WriteString("<" + e.Name)
	for _, a := range e.Attrs {
		sb.WriteString(" " + a.Name + `="`)
		for _, c := range a.Content {
			sb.WriteString(c.String())
		}
		sb.WriteString(`"`)
	}
	sb.WriteString(">")
	for _, c := range e.Content {
		sb.WriteString(c.String())
	}
	sb.WriteString("</" + e.Name + ">")
	return sb.String()
}

// Child implements Expr: the enclosed expressions of the attribute values,
// then those of the element content.
func (e ElemCtor) Child(i int) Expr {
	for _, a := range e.Attrs {
		if c := nthEnclosed(&i, a.Content); c != nil {
			return c
		}
	}
	return nthEnclosed(&i, e.Content)
}

// nthEnclosed returns the *i-th enclosed expression of cs, or nil after
// counting *i down by the ones it holds.
func nthEnclosed(i *int, cs []Content) Expr {
	for _, c := range cs {
		if c.IsLit {
			continue
		}
		if *i == 0 {
			return c.E
		}
		*i--
	}
	return nil
}
func (e ElemCtor) MapChildren(f func(Expr) Expr) Expr {
	attrs := make([]AttrCtor, len(e.Attrs))
	for i, a := range e.Attrs {
		attrs[i] = AttrCtor{Name: a.Name, Content: mapEnclosed(a.Content, f)}
	}
	e.Attrs, e.Content = attrs, mapEnclosed(e.Content, f)
	return e
}

func mapEnclosed(cs []Content, f func(Expr) Expr) []Content {
	out := make([]Content, len(cs))
	for i, c := range cs {
		if !c.IsLit {
			c.E = f(c.E)
		}
		out[i] = c
	}
	return out
}
