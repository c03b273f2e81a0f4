package xquery

import (
	"fmt"
	"strconv"
	"strings"

	"nalquery/internal/value"
)

// ParseError is a syntax error with its source position.
type ParseError struct {
	// Line is the 1-based source line the parser stopped at.
	Line int
	// Col is the 1-based column (byte offset within the line) the parser
	// stopped at.
	Col int
	// Msg describes the syntax error.
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xquery: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// ParseQuery parses an XQuery-subset query into its AST. A prolog of
// external-variable declarations is accepted and discarded; use ParseModule
// to retain it.
func ParseQuery(src string) (Expr, error) {
	m, err := ParseModule(src)
	if err != nil {
		return nil, err
	}
	return m.Body, nil
}

// ParseModule parses a query module: an optional prolog of
// "declare variable $x external;" declarations followed by the query body.
func ParseModule(src string) (*Module, error) {
	p := &parser{src: src}
	m := &Module{}
	for p.peekDecl() {
		name, err := p.parseExternalDecl()
		if err != nil {
			return nil, err
		}
		for _, have := range m.Externals {
			if have == name {
				return nil, p.errf("external variable $%s declared twice", name)
			}
		}
		m.Externals = append(m.Externals, name)
	}
	e, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if p.pos < len(p.src) {
		return nil, p.errf("unexpected trailing input %q", p.remainder(20))
	}
	m.Body = e
	return m, nil
}

// peekDecl reports whether a prolog declaration starts at the cursor: the
// keyword "declare" followed by "variable" (which distinguishes it from a
// relative path over an element named declare).
func (p *parser) peekDecl() bool {
	if !p.peekKeyword("declare") {
		return false
	}
	save := p.pos
	p.takeKeyword("declare")
	ok := p.peekKeyword("variable")
	p.pos = save
	return ok
}

// parseExternalDecl parses one prolog declaration
// "declare variable $name external;". The cursor is at the keyword
// "declare"; only external variables are supported (initialized variables
// belong in a let clause).
func (p *parser) parseExternalDecl() (string, error) {
	p.takeKeyword("declare")
	if !p.takeKeyword("variable") {
		return "", p.errf("expected 'variable' after 'declare' (only external variable declarations are supported)")
	}
	if err := p.expectSym("$"); err != nil {
		return "", err
	}
	name := p.takeName()
	if name == "" {
		return "", p.errf("expected variable name after $")
	}
	if !p.takeKeyword("external") {
		return "", p.errf("expected 'external' in declaration of $%s (initialized variables belong in a let clause)", name)
	}
	if err := p.expectSym(";"); err != nil {
		return "", err
	}
	return name, nil
}

// MustParse parses a query and panics on error. For tests and examples
// with constant query strings ONLY — never call it on user input: the
// panic-freedom contract of the public boundaries (Engine.Compile,
// Prepare, the HTTP handlers) is that arbitrary input yields a typed
// *ParseError, and fuzzing enforces it (docs/FUZZING.md).
func MustParse(src string) Expr {
	e, err := ParseQuery(src)
	if err != nil {
		//nal:allow-panic Must* contract on constant test/experiment queries; user input goes through ParseQuery (mustparse confines callers)
		panic(err)
	}
	return e
}

// maxDepth bounds expression nesting. The parser (and every AST consumer
// after it: String, normalize, translate) recurses per nesting level, and a
// deep enough input — megabytes of "((((…" — exhausts the goroutine stack,
// which is a process-fatal error no recover can catch. The limit turns that
// into a typed *ParseError long before the stack is at risk; no legitimate
// query nests anywhere near this deep.
const maxDepth = 500

type parser struct {
	src   string
	pos   int
	depth int
}

func (p *parser) errf(format string, args ...interface{}) error {
	line := 1 + strings.Count(p.src[:p.pos], "\n")
	col := p.pos - strings.LastIndexByte(p.src[:p.pos], '\n')
	return &ParseError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// enter guards one level of expression nesting; the returned func unwinds
// it. Callers must check err before recursing further.
func (p *parser) enter() (func(), error) {
	p.depth++
	if p.depth > maxDepth {
		return nil, p.errf("expression nested deeper than %d levels", maxDepth)
	}
	return func() { p.depth-- }, nil
}

func (p *parser) remainder(n int) string {
	r := p.src[p.pos:]
	if len(r) > n {
		r = r[:n] + "..."
	}
	return r
}

func (p *parser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		// XQuery comments (: ... :), possibly nested.
		if c == '(' && p.pos+1 < len(p.src) && p.src[p.pos+1] == ':' {
			depth := 0
			i := p.pos
			for i < len(p.src) {
				if strings.HasPrefix(p.src[i:], "(:") {
					depth++
					i += 2
				} else if strings.HasPrefix(p.src[i:], ":)") {
					depth--
					i += 2
					if depth == 0 {
						break
					}
				} else {
					i++
				}
			}
			p.pos = i
			continue
		}
		return
	}
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '.'
}

// peekName returns the NCName at the cursor without consuming it.
func (p *parser) peekName() string {
	p.skipWS()
	if p.pos >= len(p.src) || !isNameStart(p.src[p.pos]) {
		return ""
	}
	i := p.pos
	for i < len(p.src) && isNameChar(p.src[i]) {
		i++
	}
	return p.src[p.pos:i]
}

func (p *parser) takeName() string {
	n := p.peekName()
	p.pos += len(n)
	return n
}

// peekSym reports whether the given symbol is next (after whitespace).
func (p *parser) peekSym(sym string) bool {
	p.skipWS()
	return strings.HasPrefix(p.src[p.pos:], sym)
}

func (p *parser) takeSym(sym string) bool {
	if p.peekSym(sym) {
		p.pos += len(sym)
		return true
	}
	return false
}

func (p *parser) expectSym(sym string) error {
	if !p.takeSym(sym) {
		return p.errf("expected %q, found %q", sym, p.remainder(20))
	}
	return nil
}

// peekKeyword reports whether the next token is the given keyword (a name
// not continued by a name character).
func (p *parser) peekKeyword(kw string) bool {
	return p.peekName() == kw
}

func (p *parser) takeKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.pos += len(kw)
		return true
	}
	return false
}

var reserved = map[string]bool{
	"for": true, "let": true, "where": true, "return": true, "in": true,
	"some": true, "every": true, "satisfies": true, "and": true, "or": true,
}

// parseExprSingle parses a full single expression (FLWR, quantifier or an
// operator expression). It counts one nesting level: every recursion into a
// subexpression passes through here or parseCtor, so the depth guard bounds
// the whole parse.
func (p *parser) parseExprSingle() (Expr, error) {
	leave, err := p.enter()
	if err != nil {
		return nil, err
	}
	defer leave()
	p.skipWS()
	switch {
	case p.peekKeyword("for"), p.peekKeyword("let"):
		return p.parseFLWR()
	case p.peekKeyword("some"), p.peekKeyword("every"):
		return p.parseQuant()
	case p.peekIf():
		return p.parseIf()
	default:
		return p.parseOr()
	}
}

// peekIf reports whether a conditional expression starts at the cursor:
// the keyword "if" immediately followed by "(" (which distinguishes it from
// an element named if in a path).
func (p *parser) peekIf() bool {
	if !p.peekKeyword("if") {
		return false
	}
	save := p.pos
	p.takeKeyword("if")
	ok := p.peekSym("(")
	p.pos = save
	return ok
}

// parseIf parses "if (cond) then e1 else e2". A missing else branch — an
// extension convenience — defaults to the empty sequence.
func (p *parser) parseIf() (Expr, error) {
	p.takeKeyword("if")
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if !p.takeKeyword("then") {
		return nil, p.errf("expected 'then', found %q", p.remainder(20))
	}
	thenE, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	var elseE Expr = EmptySeq{}
	if p.takeKeyword("else") {
		if elseE, err = p.parseExprSingle(); err != nil {
			return nil, err
		}
	}
	return Cond{If: cond, Then: thenE, Else: elseE}, nil
}

func (p *parser) parseFLWR() (Expr, error) {
	var f FLWR
	for {
		switch {
		case p.takeKeyword("for"):
			bs, err := p.parseBindings("in")
			if err != nil {
				return nil, err
			}
			f.Clauses = append(f.Clauses, ForClause{Bindings: bs})
		case p.takeKeyword("let"):
			bs, err := p.parseBindings(":=")
			if err != nil {
				return nil, err
			}
			f.Clauses = append(f.Clauses, LetClause{Bindings: bs})
		case p.takeKeyword("where"):
			cond, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			f.Clauses = append(f.Clauses, WhereClause{Cond: cond})
		case p.peekOrderBy():
			ob, err := p.parseOrderBy()
			if err != nil {
				return nil, err
			}
			f.Clauses = append(f.Clauses, ob)
		case p.takeKeyword("return"):
			ret, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			f.Return = ret
			return f, nil
		default:
			return nil, p.errf("expected for/let/where/return, found %q", p.remainder(20))
		}
	}
}

// peekOrderBy reports whether an (optionally stable) order by clause starts
// at the cursor, without consuming input.
func (p *parser) peekOrderBy() bool {
	if p.peekKeyword("order") {
		return true
	}
	if !p.peekKeyword("stable") {
		return false
	}
	// Look ahead past "stable" for "order".
	save := p.pos
	p.takeKeyword("stable")
	ok := p.peekKeyword("order")
	p.pos = save
	return ok
}

// parseOrderBy parses "[stable] order by key [ascending|descending]
// (, key [ascending|descending])*".
func (p *parser) parseOrderBy() (OrderByClause, error) {
	var ob OrderByClause
	if p.takeKeyword("stable") {
		ob.Stable = true
	}
	if !p.takeKeyword("order") {
		return ob, p.errf("expected 'order', found %q", p.remainder(20))
	}
	if !p.takeKeyword("by") {
		return ob, p.errf("expected 'by' after 'order', found %q", p.remainder(20))
	}
	for {
		key, err := p.parseExprSingle()
		if err != nil {
			return ob, err
		}
		spec := OrderSpec{Key: key}
		switch {
		case p.takeKeyword("descending"):
			spec.Descending = true
		case p.takeKeyword("ascending"):
		}
		ob.Specs = append(ob.Specs, spec)
		if !p.takeSym(",") {
			return ob, nil
		}
	}
}

func (p *parser) parseBindings(sep string) ([]Binding, error) {
	var out []Binding
	for {
		if err := p.expectSym("$"); err != nil {
			return nil, err
		}
		name := p.takeName()
		if name == "" {
			return nil, p.errf("expected variable name after $")
		}
		// Positional variable of a for binding: "for $x at $i in e".
		pos := ""
		if sep == "in" && p.takeKeyword("at") {
			if err := p.expectSym("$"); err != nil {
				return nil, err
			}
			pos = p.takeName()
			if pos == "" {
				return nil, p.errf("expected positional variable name after 'at $'")
			}
		}
		// Accept both ":=" and "=" for let (the paper's examples write
		// "for $i2 = ..." once; be forgiving for both separators).
		if !p.takeSym(sep) {
			alt := "="
			if sep == "=" {
				alt = ":="
			}
			if sep == "in" || !p.takeSym(alt) {
				return nil, p.errf("expected %q after $%s", sep, name)
			}
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		out = append(out, Binding{Var: name, Pos: pos, E: e})
		if !p.takeSym(",") {
			return out, nil
		}
	}
}

func (p *parser) parseQuant() (Expr, error) {
	every := false
	switch {
	case p.takeKeyword("some"):
	case p.takeKeyword("every"):
		every = true
	default:
		return nil, p.errf("expected some/every")
	}
	// XQuery allows several in-bindings: "some $x in e1, $y in e2
	// satisfies p". The parser desugars them into nested single-variable
	// quantifiers — some $x … (some $y … p) / every $x … (every $y … p) —
	// the form the translation and unnesting machinery handles.
	type qBinding struct {
		name string
		rng  Expr
	}
	var bindings []qBinding
	for {
		if err := p.expectSym("$"); err != nil {
			return nil, err
		}
		name := p.takeName()
		if name == "" {
			return nil, p.errf("expected variable name after $")
		}
		if !p.takeKeyword("in") {
			return nil, p.errf("expected 'in' in quantifier")
		}
		// The range is an ExprSingle, as in XQuery's grammar: the printer
		// writes a FLWR range without parentheses.
		rng, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		bindings = append(bindings, qBinding{name: name, rng: rng})
		if !p.takeSym(",") {
			break
		}
	}
	if !p.takeKeyword("satisfies") {
		return nil, p.errf("expected 'satisfies' in quantifier")
	}
	sat, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	out := sat
	for i := len(bindings) - 1; i >= 0; i-- {
		out = Quant{Every: every, Var: bindings[i].name, Range: bindings[i].rng, Sat: out}
	}
	return out, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.takeKeyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.takeKeyword("and") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	var op value.CmpOp
	switch {
	case p.takeSym("!="):
		op = value.CmpNe
	case p.takeSym("<="):
		op = value.CmpLe
	case p.takeSym(">="):
		op = value.CmpGe
	case p.takeSym("="):
		op = value.CmpEq
	case p.peekSym("<") && !p.startsCtor():
		p.pos++
		op = value.CmpLt
	case p.takeSym(">"):
		op = value.CmpGt
	default:
		return l, nil
	}
	r, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return Cmp{L: l, R: r, Op: op}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		p.skipWS()
		var op byte
		switch {
		case p.takeSym("+"):
			op = '+'
		case p.takeSym("-"):
			op = '-'
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = Arith{L: l, R: r, Op: op}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	for {
		p.skipWS()
		var op byte
		switch {
		case p.takeSym("*"):
			op = '*'
		case p.takeKeyword("div"):
			op = '/'
		case p.takeKeyword("mod"):
			op = '%'
		default:
			return l, nil
		}
		r, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		l = Arith{L: l, R: r, Op: op}
	}
}

// startsCtor reports whether the cursor is at an element constructor
// (< immediately followed by a name start character).
func (p *parser) startsCtor() bool {
	p.skipWS()
	return p.pos+1 < len(p.src) && p.src[p.pos] == '<' && isNameStart(p.src[p.pos+1])
}

func (p *parser) parsePath() (Expr, error) {
	var base Expr
	p.skipWS()
	if p.peekSym("/") {
		// A leading / or // is a path from the context item.
		base = ContextRef{}
	} else {
		b, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		base = b
	}
	var steps []Step
	for {
		desc := false
		switch {
		case p.takeSym("//"):
			desc = true
		case p.peekSym("/") && !p.peekSym("/>"):
			p.pos++
		default:
			if len(steps) == 0 {
				return base, nil
			}
			return Path{Base: base, Steps: steps}, nil
		}
		attr := p.takeSym("@")
		name := p.takeName()
		if name == "" {
			if !p.takeSym("*") {
				return nil, p.errf("expected step name after / or //")
			}
			name = "*" // wildcard step: matches any element/attribute name
		}
		st := Step{Descendant: desc, Attribute: attr, Name: name}
		if p.takeSym("[") {
			pred, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym("]"); err != nil {
				return nil, err
			}
			st.Pred = pred
		}
		steps = append(steps, st)
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	p.skipWS()
	if p.pos >= len(p.src) {
		return nil, p.errf("unexpected end of query")
	}
	c := p.src[p.pos]
	switch {
	case c == '$':
		p.pos++
		name := p.takeName()
		if name == "" {
			return nil, p.errf("expected variable name after $")
		}
		return VarRef{Name: name}, nil
	case c == '"' || c == '\'':
		return p.parseStringLit()
	case c >= '0' && c <= '9':
		return p.parseNumber()
	case c == '(':
		p.pos++
		if p.takeSym(")") {
			return EmptySeq{}, nil
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return e, nil
	case c == '.':
		p.pos++
		return ContextRef{}, nil
	case c == '<':
		if p.startsCtor() {
			return p.parseCtor()
		}
		return nil, p.errf("unexpected '<'")
	case isNameStart(c):
		name := p.takeName()
		if reserved[name] {
			return nil, p.errf("unexpected keyword %q", name)
		}
		if p.takeSym("(") {
			var args []Expr
			if !p.takeSym(")") {
				for {
					a, err := p.parseExprSingle()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.takeSym(")") {
						break
					}
					if err := p.expectSym(","); err != nil {
						return nil, err
					}
				}
			}
			return Call{Fn: name, Args: args}, nil
		}
		// A bare name is a relative child path from the context item.
		return Path{Base: ContextRef{}, Steps: []Step{{Name: name}}}, nil
	default:
		return nil, p.errf("unexpected character %q", string(c))
	}
}

// parseStringLit scans a string literal. A doubled delimiter inside the
// literal escapes it (XQuery's escape: two quotes, or two apostrophes, stand
// for one), so every string value has a printable source form and
// parse/print round-trips.
func (p *parser) parseStringLit() (Expr, error) {
	quote := p.src[p.pos]
	p.pos++
	var sb strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == quote {
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == quote {
				sb.WriteByte(quote)
				p.pos += 2
				continue
			}
			p.pos++
			return StrLit{V: sb.String()}, nil
		}
		sb.WriteByte(c)
		p.pos++
	}
	return nil, p.errf("unterminated string literal")
}

func (p *parser) parseNumber() (Expr, error) {
	start := p.pos
	for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
		p.pos++
	}
	f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return nil, p.errf("bad number %q", p.src[start:p.pos])
	}
	return NumLit{V: f}, nil
}

// parseCtor parses a direct element constructor. The cursor is at '<'.
// Nested constructors recurse without passing through parseExprSingle, so
// the depth guard is applied here too.
func (p *parser) parseCtor() (Expr, error) {
	leave, err := p.enter()
	if err != nil {
		return nil, err
	}
	defer leave()
	p.pos++ // consume <
	name := p.takeName()
	if name == "" {
		return nil, p.errf("expected element name in constructor")
	}
	var ctor ElemCtor
	ctor.Name = name
	// Attributes.
	for {
		p.skipWS()
		if p.takeSym("/>") {
			return ctor, nil
		}
		if p.takeSym(">") {
			break
		}
		an := p.takeName()
		if an == "" {
			return nil, p.errf("expected attribute name in <%s>", name)
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		p.skipWS()
		if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
			return nil, p.errf("expected quoted attribute value for %s", an)
		}
		quote := p.src[p.pos]
		p.pos++
		content, err := p.parseCtorText(string(quote), false)
		if err != nil {
			return nil, err
		}
		p.pos++ // closing quote
		ctor.Attrs = append(ctor.Attrs, AttrCtor{Name: an, Content: content})
	}
	// Content until matching end tag.
	for {
		content, err := p.parseCtorText("<", true)
		if err != nil {
			return nil, err
		}
		ctor.Content = append(ctor.Content, content...)
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated element <%s>", name)
		}
		// At '<'.
		if strings.HasPrefix(p.src[p.pos:], "</") {
			p.pos += 2
			end := p.takeName()
			// Be forgiving about a mismatched end tag only when it matches;
			// the paper's published Q5 text contains a typo (<new-author>
			// instead of </new-author>) that we do not replicate.
			if end != name {
				return nil, p.errf("end tag </%s> does not match <%s>", end, name)
			}
			p.skipWS()
			if err := p.expectSym(">"); err != nil {
				return nil, err
			}
			return ctor, nil
		}
		inner, err := p.parseCtor()
		if err != nil {
			return nil, err
		}
		ctor.Content = append(ctor.Content, Content{E: inner})
	}
}

// parseCtorText scans literal text mixed with enclosed expressions until the
// given stop character ('<' for element content, the quote for attribute
// values). dropWS drops whitespace-only literal chunks (boundary
// whitespace).
func (p *parser) parseCtorText(stop string, dropWS bool) ([]Content, error) {
	var out []Content
	var lit strings.Builder
	flush := func() {
		s := lit.String()
		lit.Reset()
		if s == "" {
			return
		}
		if dropWS && strings.TrimSpace(s) == "" {
			return
		}
		if dropWS {
			// Collapse boundary whitespace inside mixed content: trim text
			// adjacent to constructor boundaries.
			s = strings.TrimSpace(s)
			if s == "" {
				return
			}
		}
		out = append(out, Content{Text: s, IsLit: true})
	}
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if strings.HasPrefix(p.src[p.pos:], stop) {
			flush()
			return out, nil
		}
		if c == '{' {
			flush()
			p.pos++
			e, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym("}"); err != nil {
				return nil, err
			}
			out = append(out, Content{E: e})
			continue
		}
		lit.WriteByte(c)
		p.pos++
	}
	return nil, p.errf("unterminated constructor content (looking for %q)", stop)
}
