package algebra

import (
	"math"
	"slices"

	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

// This file compiles subscript expressions, once, when Resolve types the
// operator holding them: attribute references become slot reads — of the row
// the expression is evaluated on or of a row enclosing it — so the per-tuple
// cost of σ, χ, Υ and Ξ is slice indexing. A nested algebraic expression —
// the nested-loop strategy the unnesting equivalences remove — is resolved
// where the compiler meets it, as a plan under the scope of the rows whose
// subscript holds it. Opening an operator builds its iterator and the scratch
// its stateful expressions keep (frame), and compiles nothing; a nested plan
// is opened on this engine once per outer tuple, under that tuple's chain of
// rows (outer), and materialized in full before f is applied or the
// quantifier's predicate tested — the work the definitional Eval does, so
// both count the same tuples and scans.

// outer is the chain of rows a plan's free variables read: the row whose
// subscript holds the plan, then the rows enclosing that one, innermost
// first — the row engine's env ◦ t. A top-level plan opens under nil.
type outer struct {
	row value.Row
	up  *outer
}

// scope is outer's twin at resolve time: the schema of the rows an expression
// is evaluated on and, behind it, the scopes of the rows enclosing them. It
// travels by value, so that compiling a subscript allocates no scope; only a
// nested plan, whose rows it encloses, takes its address (ptr).
type scope struct {
	Schema
	up *scope
}

// ptr returns the scope as the enclosing scope of another.
func (s scope) ptr() *scope { return &s }

// binding is where a variable is read: depth 0 is the row an expression is
// evaluated on, depth d the d-th row enclosing it.
type binding struct{ depth, slot int }

// lookup resolves a variable against the scope: every row that binds the name,
// innermost first, and the inner schema the innermost binding tracks. At run
// time the first binding that holds a value wins — an absent (nil) slot lets
// an enclosing binding show through, as env ◦ t does in Eval.
func (s scope) lookup(name string) (bs []binding, inner *Inner) {
	for d, at := 0, &s; at != nil; d, at = d+1, at.up {
		if slot, ok := at.Lay.Slot(name); ok {
			if bs == nil {
				inner = at.nested(name)
			}
			bs = append(bs, binding{depth: d, slot: slot})
		}
	}
	return bs, inner
}

// read returns the value of the first binding that holds one, nil when none
// does (or the variable is bound nowhere).
func read(bs []binding, r value.Row, up *outer) value.Value {
	depth := 0
	for _, b := range bs {
		for ; depth < b.depth; depth++ {
			r, up = up.row, up.up
		}
		if v := r.Vals[b.slot]; v != nil {
			return v
		}
	}
	return nil
}

// RowExpr is a compiled expression, evaluated on row r enclosed by the rows
// up, with the state fr of the open it belongs to.
type RowExpr func(fr *frame, r value.Row, up *outer) value.Value

// frame is what one open of an operator keeps for its compiled subscripts:
// the run's context and one scratch entry per stateful sub-expression. The
// iterators embed it.
type frame struct {
	ctx     *Ctx
	scratch []scratch
}

// scratch is the state of one stateful sub-expression, reused across the rows
// of an open: a value or row buffer, the slab its payloads are cut from, and
// the link of the row chain its nested plan opens under.
type scratch struct {
	vals []value.Value
	rows []value.Row
	slab rowSlab
	link outer
}

// compiler compiles the subscripts of one operator. It numbers the scratch
// entries an open allocates and records why the operator cannot run: a form
// outside the engine's inventory, or a nested plan that does not resolve
// (refused is that plan's lowest untyped operator).
type compiler struct {
	states  int
	failed  bool
	refused *Node
}

// state reserves a scratch entry.
func (c *compiler) state() int {
	c.states++
	return c.states - 1
}

// frame builds the state of one open of the node's compiled subscripts.
func (n *Node) frame(ctx *Ctx) frame {
	fr := frame{ctx: ctx}
	if n.states > 0 {
		fr.scratch = make([]scratch, n.states)
	}
	return fr
}

// plan resolves the plan of a nested algebraic expression under the scope of
// the rows whose subscript holds it.
func (c *compiler) plan(op Op, s *scope) *Node {
	n := resolveIn(op, s)
	if !n.OK && !c.failed {
		c.failed, c.refused = true, n.unresolved()
	}
	return n
}

// expr compiles e against rows of the scope.
func (c *compiler) expr(e Expr, s scope) RowExpr {
	out, _ := c.compile(e, s)
	return out
}

// compile compiles e against rows of the scope and returns, with it, the
// inner schema of the tuple sequence e produces when that is statically
// known. An expression outside this switch fails the operator.
func (c *compiler) compile(e Expr, s scope) (RowExpr, *Inner) {
	switch w := e.(type) {
	case Var:
		bs, inner := s.lookup(w.Name)
		if len(bs) == 1 && bs[0].depth == 0 {
			slot := bs[0].slot
			return func(_ *frame, r value.Row, _ *outer) value.Value { return r.Vals[slot] }, inner
		}
		return func(_ *frame, r value.Row, up *outer) value.Value { return read(bs, r, up) }, inner

	case ConstVal:
		// A constant tuple sequence is typed by its own layout.
		var inner *Inner
		if rs, ok := w.V.(value.RowSeq); ok {
			inner = &Inner{Lay: rs.Lay()}
		}
		return func(*frame, value.Row, *outer) value.Value { return w.V }, inner

	case Param:
		// External-variable read: one slice index into the per-run binding
		// table — the run-time twin of a constant.
		idx := w.Idx
		return func(fr *frame, _ value.Row, _ *outer) value.Value { return fr.ctx.ParamVal(idx) }, nil

	case Doc:
		return func(fr *frame, _ value.Row, _ *outer) value.Value { return w.root(fr.ctx) }, nil

	case PathOf:
		in := c.expr(w.Input, s)
		names := new(xpath.Names)
		return func(fr *frame, r value.Row, up *outer) value.Value { return w.Path.EvalNames(in(fr, r, up), names) }, nil

	case CmpExpr:
		l, rr := c.expr(w.L, s), c.expr(w.R, s)
		return func(fr *frame, r value.Row, up *outer) value.Value {
			return value.Bool(value.GeneralCompare(l(fr, r, up), rr(fr, r, up), w.Op))
		}, nil

	case InExpr:
		item, seq := c.expr(w.Item, s), c.expr(w.Seq, s)
		return func(fr *frame, r value.Row, up *outer) value.Value {
			return value.Bool(value.Member(item(fr, r, up), seq(fr, r, up)))
		}, nil

	case AndExpr:
		l, rr := c.expr(w.L, s), c.expr(w.R, s)
		return func(fr *frame, r value.Row, up *outer) value.Value {
			if !value.EffectiveBool(l(fr, r, up)) {
				return value.Bool(false)
			}
			return value.Bool(value.EffectiveBool(rr(fr, r, up)))
		}, nil

	case OrExpr:
		l, rr := c.expr(w.L, s), c.expr(w.R, s)
		return func(fr *frame, r value.Row, up *outer) value.Value {
			if value.EffectiveBool(l(fr, r, up)) {
				return value.Bool(true)
			}
			return value.Bool(value.EffectiveBool(rr(fr, r, up)))
		}, nil

	case NotExpr:
		in := c.expr(w.E, s)
		return func(fr *frame, r value.Row, up *outer) value.Value {
			return value.Bool(!value.EffectiveBool(in(fr, r, up)))
		}, nil

	case CondExpr:
		cond := c.expr(w.If, s)
		then, t := c.compile(w.Then, s)
		els, f := c.compile(w.Else, s)
		var inner *Inner
		if t != nil && f != nil && slices.Equal(t.Lay.Names(), f.Lay.Names()) {
			inner = t
		}
		return func(fr *frame, r value.Row, up *outer) value.Value {
			if value.EffectiveBool(cond(fr, r, up)) {
				return then(fr, r, up)
			}
			return els(fr, r, up)
		}, inner

	case ArithExpr:
		l, rr := c.expr(w.L, s), c.expr(w.R, s)
		return func(fr *frame, r value.Row, up *outer) value.Value {
			return evalArith(w.Op, l(fr, r, up), rr(fr, r, up))
		}, nil

	case Call:
		args := make([]RowExpr, len(w.Args))
		for i, a := range w.Args {
			args[i] = c.expr(a, s)
		}
		if len(args) == 0 {
			return func(*frame, value.Row, *outer) value.Value { return evalBuiltin(w.Fn, nil) }, nil
		}
		// The argument buffer is the open's: evalBuiltin never retains the
		// slice, and argument evaluation cannot re-enter this call
		// (expressions form a tree).
		i := c.state()
		return func(fr *frame, r value.Row, up *outer) value.Value {
			st := &fr.scratch[i]
			if st.vals == nil {
				st.vals = make([]value.Value, len(args))
			}
			for j, a := range args {
				st.vals[j] = a(fr, r, up)
			}
			return evalBuiltin(w.Fn, st.vals)
		}, nil

	case BindTuples:
		lay := value.NewLayout(w.Attr)
		inner := &Inner{Lay: lay}
		if p, ok := w.E.(PathOf); ok {
			// e[a] over a path binds the selection itself: no path value is
			// built to be unwrapped again. The nodes are copied out of the
			// stack buffer into a width-1 flat backing cut from the open's
			// slab, one payload a "row" of the slab.
			in := c.expr(p.Input, s)
			names := new(xpath.Names)
			i := c.state()
			return func(fr *frame, r value.Row, up *outer) value.Value {
				var buf [8]*dom.Node
				nodes := p.Path.AppendNames(buf[:0], in(fr, r, up), names)
				var flat []value.Value
				if len(nodes) > 0 {
					flat = fr.scratch[i].slab.payload(len(nodes))
				}
				for j, n := range nodes {
					flat[j] = value.NodeVal{Node: n}
				}
				return value.RowSeqOfFlat(lay, flat)
			}, inner
		}
		in := c.expr(w.E, s)
		return func(fr *frame, r value.Row, up *outer) value.Value {
			return value.BindRowSeqLay(lay, value.AsSeq(in(fr, r, up)))
		}, inner

	case NestedApply:
		at := s.ptr()
		sub := c.plan(w.Plan, at)
		if !sub.OK {
			return nil, nil
		}
		apply, inner := c.applier(w.F, sub.Schema, at)
		// f reads the sub-plan's rows and lets go, so one buffer serves all
		// outer rows.
		i := c.state()
		return func(fr *frame, r value.Row, up *outer) value.Value {
			fr.ctx.Stats.NestedEvals++
			st := &fr.scratch[i]
			st.link = outer{row: r, up: up}
			st.rows = sub.rows(fr.ctx, &st.link, st.rows[:0])
			return apply(fr, st.rows, &st.link)
		}, inner

	case ExistsQ:
		return c.quantifier(w.Var, w.RangeAttr, w.Range, w.Pred, true, s), nil
	case ForallQ:
		return c.quantifier(w.Var, w.RangeAttr, w.Range, w.Pred, false, s), nil
	}
	c.failed = true
	return nil, nil
}

// quantifier compiles ∃x ∈ range: p (exists) and ∀x ∈ range: p: per outer
// row the range plan runs to its end under the row's chain, then p is tested
// on the outer row extended by x, range tuple by range tuple, until one
// decides.
func (c *compiler) quantifier(x, rangeAttr string, rng Op, p Expr, exists bool, s scope) RowExpr {
	sub := c.plan(rng, s.ptr())
	if !sub.OK {
		return nil
	}
	from, bound := sub.Schema.Lay.Slot(rangeAttr)
	lay, to := s.Lay.Extend(x)
	pred := c.expr(p, scope{Schema: Schema{Lay: lay,
		Nested: nestedWith(s.Nested, x, sub.Schema.nested(rangeAttr))}, up: s.up})
	// The predicate reads slots and keeps nothing of the row it is tested
	// on, so one probe row and one range buffer serve every outer row.
	i := c.state()
	return func(fr *frame, r value.Row, up *outer) value.Value {
		fr.ctx.Stats.NestedEvals++
		st := &fr.scratch[i]
		st.link = outer{row: r, up: up}
		st.rows = sub.rows(fr.ctx, &st.link, st.rows[:0])
		if st.vals == nil {
			st.vals = make([]value.Value, lay.Width())
		}
		probe := st.vals
		copy(probe, r.Vals)
		for _, t := range st.rows {
			probe[to] = nil
			if bound {
				probe[to] = t.Vals[from]
			}
			if value.EffectiveBool(pred(fr, value.Row{Lay: lay, Vals: probe}, up)) == exists {
				return value.Bool(exists)
			}
		}
		return value.Bool(!exists)
	}
}

// rows opens the resolved plan under the chain up and appends everything it
// produces to dst: the per-outer-tuple evaluation of a nested plan. Its
// operators charge the budget and poll cancellation themselves; holding the
// result charges nothing more, as in NestedApply.Eval.
func (n *Node) rows(ctx *Ctx, up *outer, dst []value.Row) []value.Row {
	it := n.open(ctx, up)
	for {
		r, ok := it.Next()
		if !ok {
			it.Close()
			return dst
		}
		dst = append(dst, r)
	}
}

// evalArith mirrors ArithExpr.Eval on already-computed operands.
func evalArith(op byte, lv, rv value.Value) value.Value {
	l, lok := value.Number(lv)
	r, rok := value.Number(rv)
	if !lok || !rok {
		return value.Null{}
	}
	switch op {
	case '+':
		return value.Float(l + r)
	case '-':
		return value.Float(l - r)
	case '*':
		return value.Float(l * r)
	case '/':
		if r == 0 {
			return value.Null{}
		}
		return value.Float(l / r)
	case '%':
		if r == 0 {
			return value.Null{}
		}
		return value.Float(math.Mod(l, r))
	default:
		return value.Null{}
	}
}

// compiledCmd is one slot-compiled Ξ command.
type compiledCmd struct {
	lit    string
	e      RowExpr
	isLit  bool
	inAttr bool
}

func (c *compiler) commands(cs []Command, s scope) []compiledCmd {
	out := make([]compiledCmd, len(cs))
	for i, cmd := range cs {
		if cmd.IsLit {
			out[i] = compiledCmd{lit: cmd.Lit, isLit: true}
		} else {
			out[i] = compiledCmd{e: c.expr(cmd.E, s), inAttr: cmd.InAttr}
		}
	}
	return out
}

func execCompiled(fr *frame, r value.Row, up *outer, cs []compiledCmd) {
	for _, c := range cs {
		switch {
		case c.isLit:
			fr.ctx.EmitLit(c.lit)
		case c.inAttr:
			fr.ctx.emitAttr(c.e(fr, r, up))
		default:
			fr.ctx.EmitValue(c.e(fr, r, up))
		}
	}
}
