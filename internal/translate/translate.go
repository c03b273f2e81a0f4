// Package translate implements the translation of normalized XQuery ASTs
// into the NAL algebra — the two mutually recursive T functions of Fig. 3:
//
//	for  clauses become unnest-map operators (Υ),
//	let  clauses become map operators (χ), with nested queries translated
//	     into nested algebraic expressions f(σ...(e2)),
//	where clauses become selections (σ),
//	return clauses become result construction (Ξ),
//	quantifiers become ∃/∀ predicates over nested algebraic ranges.
//
// The translator also records the provenance of every variable (document
// URI, element chain, distinctness) — the information the unnesting rewriter
// needs to verify the schema-dependent side conditions of Eqvs. 3, 5, 8
// and 9.
package translate

import (
	"fmt"
	"strings"

	"nalquery/internal/algebra"
	"nalquery/internal/schema"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
	"nalquery/internal/xquery"
)

// Error reports a query the translator rejects: a shape outside the
// supported XQuery subset, or one the normalizer should have rewritten but
// did not. Every rejection from this package is an *Error — callers
// (the public compile boundary) rely on errors.As never failing — so a
// non-Error escaping translation indicates a translator bug, not a bad
// query.
type Error struct {
	// Msg describes the rejection.
	Msg string
	// Cause is the underlying error when the rejection wraps one (e.g. an
	// XPath syntax error inside a path expression); nil otherwise.
	Cause error
}

func (e *Error) Error() string { return "translate: " + e.Msg }

// Unwrap exposes the wrapped cause to errors.Is/As chains.
func (e *Error) Unwrap() error { return e.Cause }

// errf builds a typed translation rejection.
func errf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// Prov describes where a variable's values come from.
type Prov struct {
	// URI is the source document, "" when unknown.
	URI string
	// Chain is the element chain from the document root, e.g. "//book/author"
	// or "//book/@year"; "" for the document node itself or when unknown.
	Chain string
	// Distinct is true when the values passed through distinct-values / ΠD
	// (value-level duplicate freeness).
	Distinct bool
	// DupFree is true when the bound items are duplicate-free as nodes
	// (every path expression "returns a duplicate-free sequence by
	// definition", Sec. 5.4). Value-level duplicates may still occur.
	DupFree bool
	// IsDoc is true for variables bound to a document root.
	IsDoc bool
	// IsSeq is true for sequence-valued attributes created via e[a]
	// (BindTuples); ItemAttr is the inner tuple attribute (the primed name).
	IsSeq    bool
	ItemAttr string
}

// Result is the output of a translation.
type Result struct {
	Plan algebra.Op
	// Prov maps attribute names to their provenance.
	Prov map[string]Prov
}

// Translator translates normalized queries.
type Translator struct {
	cat  *schema.Catalog
	prov map[string]Prov
	// params maps external variable names to parameter slots; bound tracks
	// the clause bindings currently in scope (unlike prov, which
	// accumulates across the whole query for the rewriter's side-condition
	// checks), so externals are shadowed exactly while a same-named binding
	// is in scope.
	params map[string]int
	bound  map[string]bool
}

// New creates a Translator using the given schema catalog (may be nil; then
// all paths are treated as potentially sequence-valued, which is always
// safe).
func New(cat *schema.Catalog) *Translator {
	return &Translator{cat: cat, prov: map[string]Prov{}, bound: map[string]bool{}}
}

// Translate translates a normalized query into an algebra plan.
func Translate(q xquery.Expr, cat *schema.Catalog) (*Result, error) {
	return TranslateParams(q, cat, nil)
}

// TranslateParams translates a normalized query whose free variables named
// in params are external: references to them become typed algebra.Param
// expressions reading the per-run binding table at the given slot index,
// instead of tuple-attribute reads. A clause binding of the same name
// shadows the parameter from that point on, matching XQuery scoping.
func TranslateParams(q xquery.Expr, cat *schema.Catalog, params map[string]int) (*Result, error) {
	tr := New(cat)
	tr.params = params
	f, ok := q.(xquery.FLWR)
	if !ok {
		return nil, errf("top-level expression must be a FLWR expression, got %T", q)
	}
	plan, err := tr.flwrPipeline(f.Clauses, algebra.Singleton{})
	if err != nil {
		return nil, err
	}
	top, err := tr.returnOp(plan, f.Return)
	if err != nil {
		return nil, err
	}
	return &Result{Plan: top, Prov: tr.prov}, nil
}

// flwrPipeline translates the clause list of a FLWR expression, Fig. 3's
// binary T function.
func (tr *Translator) flwrPipeline(clauses []xquery.Clause, in algebra.Op) (algebra.Op, error) {
	plan := in
	for _, c := range clauses {
		switch cl := c.(type) {
		case xquery.ForClause:
			for _, b := range cl.Bindings {
				e, p, err := tr.rangeExpr(b.E)
				if err != nil {
					return nil, err
				}
				tr.bind(b.Var, p)
				if b.Pos != "" {
					tr.bind(b.Pos, Prov{})
				}
				plan = algebra.UnnestMap{In: plan, Attr: b.Var, E: e, PosAttr: b.Pos}
			}
		case xquery.LetClause:
			for _, b := range cl.Bindings {
				e, p, err := tr.letExpr(b.Var, b.E)
				if err != nil {
					return nil, err
				}
				tr.bind(b.Var, p)
				plan = algebra.Map{In: plan, Attr: b.Var, E: e}
			}
		case xquery.WhereClause:
			pred, err := tr.expr(cl.Cond)
			if err != nil {
				return nil, err
			}
			plan = algebra.Select{In: plan, Pred: pred}
		case xquery.OrderByClause:
			// Extension beyond Fig. 3 (the paper skips order by): bind each
			// ordering key to a fresh sort attribute, sort stably, drop the
			// sort attributes afterwards.
			var keys []string
			var dirs []bool
			for _, s := range cl.Specs {
				e, err := tr.expr(s.Key)
				if err != nil {
					return nil, err
				}
				attr := fmt.Sprintf("#ob%d", len(tr.prov))
				tr.bind(attr, Prov{})
				plan = algebra.Map{In: plan, Attr: attr, E: e}
				keys = append(keys, attr)
				dirs = append(dirs, s.Descending)
			}
			plan = algebra.ProjectDrop{
				In:    algebra.Sort{In: plan, By: keys, Dirs: dirs},
				Names: keys,
			}
		}
	}
	return plan, nil
}

// rangeExpr translates a for-binding range into an item-sequence expression
// plus the provenance of the bound items.
func (tr *Translator) rangeExpr(e xquery.Expr) (algebra.Expr, Prov, error) {
	switch w := e.(type) {
	case xquery.Path:
		ex, err := tr.pathExpr(w)
		if err != nil {
			return nil, Prov{}, err
		}
		p := tr.pathProv(w)
		p.DupFree = true
		return ex, p, nil
	case xquery.Call:
		if w.Fn == "distinct-values" && len(w.Args) == 1 {
			arg, err := tr.expr(w.Args[0])
			if err != nil {
				return nil, Prov{}, err
			}
			p := Prov{}
			if pa, ok := w.Args[0].(xquery.Path); ok {
				p = tr.pathProv(pa)
			}
			p.Distinct = true
			p.DupFree = true
			return algebra.Call{Fn: "distinct-values", Args: []algebra.Expr{arg}}, p, nil
		}
		ex, err := tr.expr(e)
		return ex, Prov{}, err
	case xquery.VarRef:
		if idx, ok := tr.paramIdx(w.Name); ok {
			return algebra.Param{Name: w.Name, Idx: idx}, Prov{}, nil
		}
		return algebra.Var{Name: w.Name}, tr.prov[w.Name], nil
	default:
		ex, err := tr.expr(e)
		return ex, Prov{}, err
	}
}

// bind records one clause binding: provenance accumulates for the
// rewriter, and the name enters the current shadowing scope.
func (tr *Translator) bind(name string, p Prov) {
	tr.prov[name] = p
	tr.bound[name] = true
}

// paramIdx resolves a variable reference to its external-parameter slot.
// Clause bindings currently in scope (for/let variables, positional and
// quantifier variables, sort attributes) shadow a same-named external.
func (tr *Translator) paramIdx(name string) (int, bool) {
	if len(tr.params) == 0 || tr.bound[name] {
		return 0, false
	}
	idx, ok := tr.params[name]
	return idx, ok
}

// scope opens a shadowing scope; calling the returned function ends it,
// dropping bindings made inside. Nested FLWR blocks and quantifiers
// restore on exit so a binding that shadows an external variable stops
// shadowing where its XQuery scope ends — a reference after the scope
// resolves to the external again, not to an unbound tuple attribute.
func (tr *Translator) scope() func() {
	saved := make(map[string]bool, len(tr.bound))
	for k := range tr.bound {
		saved[k] = true
	}
	return func() { tr.bound = saved }
}

// letExpr translates a let-binding. Nested FLWR expressions become nested
// algebraic applications f(plan); non-singleton paths are bound as
// sequence-valued attributes via e[a′].
func (tr *Translator) letExpr(varName string, e xquery.Expr) (algebra.Expr, Prov, error) {
	switch w := e.(type) {
	case xquery.FLWR:
		na, p, err := tr.nestedQuery(w, algebra.SFIdent{})
		return na, p, err
	case xquery.Call:
		if fn := aggName(w.Fn); fn != "" && len(w.Args) == 1 {
			if inner, ok := w.Args[0].(xquery.FLWR); ok {
				return tr.nestedAgg(inner, fn)
			}
		}
		if w.Fn == "doc" || w.Fn == "document" {
			uri, err := docURI(w)
			if err != nil {
				return nil, Prov{}, err
			}
			return algebra.Doc{URI: uri}, Prov{URI: uri, IsDoc: true}, nil
		}
		ex, err := tr.expr(e)
		return ex, Prov{}, err
	case xquery.Path:
		ex, err := tr.pathExpr(w)
		if err != nil {
			return nil, Prov{}, err
		}
		p := tr.pathProv(w)
		if tr.singletonPath(w) {
			// Singleton results need no e[a] tuple construction (Sec. 3:
			// "in case the result of some ei is a singleton, we do not need
			// to do so and will not either").
			return ex, p, nil
		}
		item := varName + "'"
		p.IsSeq = true
		p.ItemAttr = item
		return algebra.BindTuples{E: ex, Attr: item}, p, nil
	default:
		ex, err := tr.expr(e)
		return ex, Prov{}, err
	}
}

// nestedQuery translates a nested FLWR into f(plan) where the return clause
// determines the projection and f wraps it.
func (tr *Translator) nestedQuery(f xquery.FLWR, _ algebra.SeqFunc) (algebra.Expr, Prov, error) {
	rv, ok := f.Return.(xquery.VarRef)
	if !ok {
		return nil, Prov{}, errf("nested query must return a variable after normalization, got %s", f.Return)
	}
	defer tr.scope()()
	plan, err := tr.flwrPipeline(f.Clauses, algebra.Singleton{})
	if err != nil {
		return nil, Prov{}, err
	}
	p := tr.prov[rv.Name]
	p.IsSeq = true
	p.ItemAttr = rv.Name
	return algebra.NestedApply{F: algebra.SFProject{Attrs: []string{rv.Name}}, Plan: plan}, p, nil
}

// nestedAgg translates agg( FLWR ) into (agg∘Πrv)(plan).
func (tr *Translator) nestedAgg(f xquery.FLWR, fn string) (algebra.Expr, Prov, error) {
	rv, ok := f.Return.(xquery.VarRef)
	if !ok {
		return nil, Prov{}, errf("aggregated nested query must return a variable, got %s", f.Return)
	}
	defer tr.scope()()
	plan, err := tr.flwrPipeline(f.Clauses, algebra.Singleton{})
	if err != nil {
		return nil, Prov{}, err
	}
	var sf algebra.SeqFunc
	if fn == "count" {
		sf = algebra.SFCount{}
	} else {
		sf = algebra.SFAgg{Fn: fn, Attr: rv.Name}
	}
	return algebra.NestedApply{F: sf, Plan: plan}, Prov{}, nil
}

func aggName(fn string) string {
	switch fn {
	case "count", "min", "max", "sum", "avg":
		return fn
	}
	return ""
}

func docURI(c xquery.Call) (string, error) {
	if len(c.Args) != 1 {
		return "", errf("%s() expects one argument", c.Fn)
	}
	s, ok := c.Args[0].(xquery.StrLit)
	if !ok {
		return "", errf("%s() expects a string literal", c.Fn)
	}
	return s.V, nil
}

// expr translates a scalar expression (Fig. 3's unary T function).
func (tr *Translator) expr(e xquery.Expr) (algebra.Expr, error) {
	switch w := e.(type) {
	case xquery.VarRef:
		if idx, ok := tr.paramIdx(w.Name); ok {
			return algebra.Param{Name: w.Name, Idx: idx}, nil
		}
		return algebra.Var{Name: w.Name}, nil
	case xquery.StrLit:
		return algebra.ConstVal{V: value.Str(w.V)}, nil
	case xquery.NumLit:
		if w.V == float64(int64(w.V)) {
			return algebra.ConstVal{V: value.Int(int64(w.V))}, nil
		}
		return algebra.ConstVal{V: value.Float(w.V)}, nil
	case xquery.Path:
		return tr.pathExpr(w)
	case xquery.Cmp:
		return tr.cmp(w)
	case xquery.Arith:
		l, err := tr.expr(w.L)
		if err != nil {
			return nil, err
		}
		r, err := tr.expr(w.R)
		if err != nil {
			return nil, err
		}
		return algebra.ArithExpr{L: l, R: r, Op: w.Op}, nil
	case xquery.And:
		l, err := tr.expr(w.L)
		if err != nil {
			return nil, err
		}
		r, err := tr.expr(w.R)
		if err != nil {
			return nil, err
		}
		return algebra.AndExpr{L: l, R: r}, nil
	case xquery.Or:
		l, err := tr.expr(w.L)
		if err != nil {
			return nil, err
		}
		r, err := tr.expr(w.R)
		if err != nil {
			return nil, err
		}
		return algebra.OrExpr{L: l, R: r}, nil
	case xquery.Cond:
		cond, err := tr.expr(w.If)
		if err != nil {
			return nil, err
		}
		thenE, err := tr.expr(w.Then)
		if err != nil {
			return nil, err
		}
		elseE, err := tr.expr(w.Else)
		if err != nil {
			return nil, err
		}
		return algebra.CondExpr{If: cond, Then: thenE, Else: elseE}, nil
	case xquery.EmptySeq:
		return algebra.ConstVal{V: value.Null{}}, nil
	case xquery.Call:
		return tr.call(w)
	case xquery.Quant:
		return tr.quant(w)
	case xquery.FLWR:
		na, _, err := tr.nestedQuery(w, algebra.SFIdent{})
		return na, err
	default:
		return nil, errf("unsupported expression %T (%s)", e, e)
	}
}

func (tr *Translator) call(c xquery.Call) (algebra.Expr, error) {
	switch c.Fn {
	case "doc", "document":
		uri, err := docURI(c)
		if err != nil {
			return nil, err
		}
		return algebra.Doc{URI: uri}, nil
	case "not":
		if len(c.Args) == 1 {
			a, err := tr.expr(c.Args[0])
			if err != nil {
				return nil, err
			}
			return algebra.NotExpr{E: a}, nil
		}
	}
	if fn := aggName(c.Fn); fn != "" && len(c.Args) == 1 {
		if inner, ok := c.Args[0].(xquery.FLWR); ok {
			na, _, err := tr.nestedAgg(inner, fn)
			return na, err
		}
	}
	lo, hi, ok := algebra.BuiltinArity(c.Fn)
	if !ok {
		return nil, errf("unknown function %s()", c.Fn)
	}
	if n := len(c.Args); n < lo || n > hi {
		return nil, errf("%s() does not take %d arguments", c.Fn, n)
	}
	args := make([]algebra.Expr, len(c.Args))
	for i, a := range c.Args {
		ea, err := tr.expr(a)
		if err != nil {
			return nil, err
		}
		args[i] = ea
	}
	return algebra.Call{Fn: c.Fn, Args: args}, nil
}

// cmp translates a general comparison. Equality against a sequence-valued
// attribute becomes the membership predicate ∈ (Sec. 5.1: "we have to
// translate $a1 = $a2 into a1 ∈ a2").
func (tr *Translator) cmp(c xquery.Cmp) (algebra.Expr, error) {
	l, err := tr.expr(c.L)
	if err != nil {
		return nil, err
	}
	r, err := tr.expr(c.R)
	if err != nil {
		return nil, err
	}
	if c.Op == value.CmpEq {
		lSeq := tr.isSeqVar(c.L)
		rSeq := tr.isSeqVar(c.R)
		switch {
		case rSeq && !lSeq:
			return algebra.InExpr{Item: l, Seq: r}, nil
		case lSeq && !rSeq:
			return algebra.InExpr{Item: r, Seq: l}, nil
		}
	}
	return algebra.CmpExpr{L: l, R: r, Op: c.Op}, nil
}

func (tr *Translator) isSeqVar(e xquery.Expr) bool {
	v, ok := e.(xquery.VarRef)
	if !ok {
		return false
	}
	return tr.prov[v.Name].IsSeq
}

// quant translates a quantified expression into an ∃/∀ predicate over a
// nested algebraic range.
func (tr *Translator) quant(q xquery.Quant) (algebra.Expr, error) {
	rng, ok := q.Range.(xquery.FLWR)
	if !ok {
		return nil, errf("quantifier range must be a FLWR expression after normalization")
	}
	rv, ok := rng.Return.(xquery.VarRef)
	if !ok {
		return nil, errf("quantifier range must return a variable")
	}
	// The range bindings and the quantifier variable scope over the
	// satisfies predicate only.
	defer tr.scope()()
	plan, err := tr.flwrPipeline(rng.Clauses, algebra.Singleton{})
	if err != nil {
		return nil, err
	}
	rangeOp := algebra.Project{In: plan, Names: []string{rv.Name}}
	// The quantifier variable inherits the provenance of the range items.
	tr.bind(q.Var, tr.prov[rv.Name])
	pred, err := tr.expr(q.Sat)
	if err != nil {
		return nil, err
	}
	if q.Every {
		return algebra.ForallQ{Var: q.Var, RangeAttr: rv.Name, Range: rangeOp, Pred: pred}, nil
	}
	return algebra.ExistsQ{Var: q.Var, RangeAttr: rv.Name, Range: rangeOp, Pred: pred}, nil
}

// pathExpr translates a predicate-free path.
func (tr *Translator) pathExpr(p xquery.Path) (algebra.Expr, error) {
	base, err := tr.expr(p.Base)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	for _, s := range p.Steps {
		if s.Descendant {
			sb.WriteString("//")
		} else if sb.Len() > 0 {
			sb.WriteString("/")
		}
		if s.Attribute {
			sb.WriteString("@")
		}
		sb.WriteString(s.Name)
		if s.Pred != nil {
			// Positional predicates ([n], [last()]) are part of the path;
			// value predicates must have been moved into where clauses by
			// the Sec. 3 normalization.
			switch w := s.Pred.(type) {
			case xquery.NumLit:
				fmt.Fprintf(&sb, "[%d]", int(w.V))
			case xquery.Call:
				if w.Fn != "last" || len(w.Args) != 0 {
					return nil, errf("residual path predicate %s (normalizer should have removed it)", s.Pred)
				}
				sb.WriteString("[last()]")
			default:
				return nil, errf("residual path predicate %s (normalizer should have removed it)", s.Pred)
			}
		}
	}
	xp, err := xpath.Parse(sb.String())
	if err != nil {
		return nil, &Error{Msg: err.Error(), Cause: err}
	}
	return algebra.PathOf{Input: base, Path: xp}, nil
}

// pathProv derives the provenance chain of a path expression.
func (tr *Translator) pathProv(p xquery.Path) Prov {
	var base Prov
	switch b := p.Base.(type) {
	case xquery.VarRef:
		base = tr.prov[b.Name]
	case xquery.Call:
		if b.Fn == "doc" || b.Fn == "document" {
			if uri, err := docURI(b); err == nil {
				base = Prov{URI: uri, IsDoc: true}
			}
		}
	}
	if base.URI == "" {
		return Prov{}
	}
	chain := base.Chain
	for _, s := range p.Steps {
		switch {
		case s.Attribute:
			chain += "/@" + s.Name
		case s.Descendant:
			chain += "//" + s.Name
		default:
			chain += "/" + s.Name
		}
	}
	return Prov{URI: base.URI, Chain: chain}
}

// singletonPath reports whether a path is known (via DTD facts) to select at
// most one node per context item. Paths with descendant steps or unknown
// context are conservatively non-singleton.
func (tr *Translator) singletonPath(p xquery.Path) bool {
	if tr.cat == nil {
		return false
	}
	v, ok := p.Base.(xquery.VarRef)
	if !ok {
		return false
	}
	base := tr.prov[v.Name]
	if base.URI == "" || base.Chain == "" || base.IsSeq || base.Distinct {
		return false
	}
	ctx := lastElem(base.Chain)
	if ctx == "" {
		return false
	}
	var rel []string
	for _, s := range p.Steps {
		if s.Descendant {
			return false
		}
		if s.Attribute {
			rel = append(rel, "@"+s.Name)
		} else {
			rel = append(rel, s.Name)
		}
	}
	return tr.cat.SingletonPath(base.URI, ctx, strings.Join(rel, "/"))
}

func lastElem(chain string) string {
	parts := strings.Split(strings.TrimPrefix(chain, "/"), "/")
	for i := len(parts) - 1; i >= 0; i-- {
		s := parts[i]
		if s == "" || strings.HasPrefix(s, "@") {
			continue
		}
		return s
	}
	return ""
}

// returnOp translates the return clause into a Ξ operator, flattening
// element constructors into a command list via the C function of Sec. 3.
func (tr *Translator) returnOp(in algebra.Op, ret xquery.Expr) (algebra.Op, error) {
	switch w := ret.(type) {
	case xquery.ElemCtor:
		cmds, err := tr.ctorCommands(w)
		if err != nil {
			return nil, err
		}
		return algebra.XiSimple{In: in, Cmds: cmds}, nil
	default:
		e, err := tr.expr(ret)
		if err != nil {
			return nil, err
		}
		return algebra.XiSimple{In: in, Cmds: []algebra.Command{algebra.ExprCmd(e)}}, nil
	}
}

func (tr *Translator) ctorCommands(c xquery.ElemCtor) ([]algebra.Command, error) {
	var cmds []algebra.Command
	lit := &strings.Builder{}
	flush := func() {
		if lit.Len() > 0 {
			cmds = append(cmds, algebra.LitCmd(lit.String()))
			lit.Reset()
		}
	}
	lit.WriteString("<" + c.Name)
	for _, a := range c.Attrs {
		lit.WriteString(" " + a.Name + `="`)
		for _, ct := range a.Content {
			if ct.IsLit {
				lit.WriteString(ct.Text)
				continue
			}
			e, err := tr.expr(ct.E)
			if err != nil {
				return nil, err
			}
			flush()
			cmds = append(cmds, algebra.ExprCmd(e))
		}
		lit.WriteString(`"`)
	}
	lit.WriteString(">")
	for _, ct := range c.Content {
		if ct.IsLit {
			lit.WriteString(ct.Text)
			continue
		}
		if inner, ok := ct.E.(xquery.ElemCtor); ok {
			sub, err := tr.ctorCommands(inner)
			if err != nil {
				return nil, err
			}
			for _, sc := range sub {
				if sc.IsLit {
					lit.WriteString(sc.Lit)
				} else {
					flush()
					cmds = append(cmds, sc)
				}
			}
			continue
		}
		e, err := tr.expr(ct.E)
		if err != nil {
			return nil, err
		}
		flush()
		cmds = append(cmds, algebra.ExprCmd(e))
	}
	lit.WriteString("</" + c.Name + ">")
	flush()
	return cmds, nil
}
