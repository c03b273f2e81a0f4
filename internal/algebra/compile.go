package algebra

import (
	"math"

	"nalquery/internal/dom"
	"nalquery/internal/value"
)

// This file compiles subscript expressions against a resolved Schema:
// attribute references become slot reads, so the per-tuple cost of σ, χ, Υ
// and Ξ drops from map lookups (and the env.Concat map rebuild) to slice
// indexing. Nested algebraic expressions — the nested-loop strategy the
// unnesting equivalences remove — compile too: the inner plan was resolved
// with the plan (Node.subs) and is opened on this engine once per outer
// tuple, with env ◦ row as its environment, and materialized in full before
// f is applied or the quantifier's predicate tested — the work the
// definitional Eval does, so both count the same tuples and scans.

// RowExpr is a slot-compiled expression, evaluated against one row.
type RowExpr func(ctx *Ctx, r value.Row) value.Value

// scope is what a subscript compiles against: the schema of the rows it
// reads, the bindings of the free variables of the enclosing open (fixed for
// the lifetime of one iterator tree, so free references resolve at compile
// time), and the resolved plans its nested algebraic expressions take, one
// after the other in planList order.
type scope struct {
	sc   Schema
	env  value.Tuple
	subs []*Node
}

// scope starts compiling the operator's subscripts against rows of sc.
func (n *Node) scope(sc Schema, env value.Tuple) scope {
	return scope{sc: sc, env: env, subs: n.subs}
}

// sub takes the resolved plan of the next nested algebraic expression.
func (c *scope) sub() *Node {
	n := c.subs[0]
	c.subs = c.subs[1:]
	return n
}

// seqFn compiles f for application to member rows, once per outer row. The
// sub-plans in f's predicates are set aside for it and c continues behind
// them. The applier is compiled once per member layout — the payloads of one
// operator share theirs — unless f reads the outer row: then it closes over
// env ◦ row and is compiled for each.
func (c *scope) seqFn(f SeqFunc) func(*Ctx, value.Row, *value.Layout, []value.Row) value.Value {
	var l planList
	l.fn(f)
	at := *c
	c.subs = c.subs[len(l.plans):]
	free := map[string]bool{}
	f.FreeVars(free)
	perRow := false
	for name := range free {
		perRow = perRow || c.sc.Lay.Has(name)
	}
	var lay *value.Layout
	var apply rowsFunc
	return func(ctx *Ctx, r value.Row, members *value.Layout, rows []value.Row) value.Value {
		if perRow || members != lay {
			fc := at
			if perRow {
				fc.env = rowEnv(at.env, r)
			}
			lay, apply = members, fc.applier(f, members)
		}
		return apply(ctx, rows)
	}
}

// exprOver compiles e against rows of another schema, taking sub-plans from
// the same list.
func (c *scope) exprOver(sc Schema, e Expr) RowExpr {
	outer := c.sc
	c.sc = sc
	out := c.expr(e)
	c.sc = outer
	return out
}

// expr compiles e against the scope's schema.
func (c *scope) expr(e Expr) RowExpr {
	sc, env := c.sc, c.env
	switch w := e.(type) {
	case Var:
		if slot, ok := sc.Lay.Slot(w.Name); ok {
			if v, bound := env[w.Name]; bound {
				// A nil slot is an absent attribute: the map engine's env ◦ t
				// lets the environment binding show through, so the compiled
				// form must fall back too.
				return func(_ *Ctx, r value.Row) value.Value {
					if x := r.Vals[slot]; x != nil {
						return x
					}
					return v
				}
			}
			return func(_ *Ctx, r value.Row) value.Value { return r.Vals[slot] }
		}
		v := env[w.Name]
		return func(*Ctx, value.Row) value.Value { return v }

	case ConstVal:
		return func(*Ctx, value.Row) value.Value { return w.V }

	case Param:
		// External-variable read: one slice index into the per-run binding
		// table — the run-time twin of a constant.
		idx := w.Idx
		return func(ctx *Ctx, _ value.Row) value.Value { return ctx.ParamVal(idx) }

	case Doc:
		return func(ctx *Ctx, _ value.Row) value.Value { return w.Eval(ctx, nil) }

	case PathOf:
		in := c.expr(w.Input)
		return func(ctx *Ctx, r value.Row) value.Value { return w.Path.Eval(in(ctx, r)) }

	case CmpExpr:
		l := c.expr(w.L)
		rr := c.expr(w.R)
		return func(ctx *Ctx, r value.Row) value.Value {
			return value.Bool(value.GeneralCompare(l(ctx, r), rr(ctx, r), w.Op))
		}

	case InExpr:
		item := c.expr(w.Item)
		seq := c.expr(w.Seq)
		return func(ctx *Ctx, r value.Row) value.Value {
			return value.Bool(value.Member(item(ctx, r), seq(ctx, r)))
		}

	case AndExpr:
		l := c.expr(w.L)
		rr := c.expr(w.R)
		return func(ctx *Ctx, r value.Row) value.Value {
			if !value.EffectiveBool(l(ctx, r)) {
				return value.Bool(false)
			}
			return value.Bool(value.EffectiveBool(rr(ctx, r)))
		}

	case OrExpr:
		l := c.expr(w.L)
		rr := c.expr(w.R)
		return func(ctx *Ctx, r value.Row) value.Value {
			if value.EffectiveBool(l(ctx, r)) {
				return value.Bool(true)
			}
			return value.Bool(value.EffectiveBool(rr(ctx, r)))
		}

	case NotExpr:
		in := c.expr(w.E)
		return func(ctx *Ctx, r value.Row) value.Value {
			return value.Bool(!value.EffectiveBool(in(ctx, r)))
		}

	case CondExpr:
		cond := c.expr(w.If)
		then := c.expr(w.Then)
		els := c.expr(w.Else)
		return func(ctx *Ctx, r value.Row) value.Value {
			if value.EffectiveBool(cond(ctx, r)) {
				return then(ctx, r)
			}
			return els(ctx, r)
		}

	case ArithExpr:
		l := c.expr(w.L)
		rr := c.expr(w.R)
		return func(ctx *Ctx, r value.Row) value.Value {
			return evalArith(w.Op, l(ctx, r), rr(ctx, r))
		}

	case Call:
		args := make([]RowExpr, len(w.Args))
		for i, a := range w.Args {
			args[i] = c.expr(a)
		}
		// The argument buffer is reused across invocations: evalBuiltin never
		// retains the slice, and argument evaluation cannot re-enter this
		// closure (expressions form a tree).
		vals := make([]value.Value, len(args))
		return func(ctx *Ctx, r value.Row) value.Value {
			for i, a := range args {
				vals[i] = a(ctx, r)
			}
			return evalBuiltin(w.Fn, vals)
		}

	case BindTuples:
		lay := value.NewLayout(w.Attr)
		if p, ok := w.E.(PathOf); ok {
			// e[a] over a path binds the selection itself: no path value is
			// built to be unwrapped again. The nodes are copied out of the
			// stack buffer into a width-1 flat backing cut from the closure's
			// slab, one payload a "row" of the slab.
			in := c.expr(p.Input)
			var slab rowSlab
			return func(ctx *Ctx, r value.Row) value.Value {
				var buf [8]*dom.Node
				nodes := p.Path.Append(buf[:0], in(ctx, r))
				var flat []value.Value
				if len(nodes) > 0 {
					flat = slab.payload(len(nodes))
				}
				for i, n := range nodes {
					flat[i] = value.NodeVal{Node: n}
				}
				return value.RowSeqOfFlat(lay, flat)
			}
		}
		in := c.expr(w.E)
		return func(ctx *Ctx, r value.Row) value.Value {
			return value.BindRowSeqLay(lay, value.AsSeq(in(ctx, r)))
		}

	case AggOfAttr:
		attr := c.expr(w.Attr)
		apply := c.seqFn(w.F)
		_, id := w.F.(SFIdent)
		var buf []value.Row // no function keeps it: id is the payload itself
		return func(ctx *Ctx, r value.Row) value.Value {
			ts, ok := attr(ctx, r).(value.RowSeq)
			if !ok {
				return value.Null{}
			}
			if id {
				return ts
			}
			buf = rowSeqRows(ts, buf[:0])
			return apply(ctx, r, ts.Lay(), buf)
		}

	case NestedApply:
		sub := c.sub()
		apply := c.seqFn(w.F)
		// id keeps the member slice as its payload; every other function
		// reads it and lets go, so one buffer serves all outer rows.
		_, keeps := w.F.(SFIdent)
		var buf []value.Row
		return func(ctx *Ctx, r value.Row) value.Value {
			ctx.Stats.NestedEvals++
			rows := sub.rows(ctx, rowEnv(env, r), buf[:0])
			if !keeps {
				buf = rows
			}
			return apply(ctx, r, sub.Schema.Lay, rows)
		}

	case ExistsQ:
		return c.quantifier(w.Var, w.RangeAttr, w.Pred, true)
	case ForallQ:
		return c.quantifier(w.Var, w.RangeAttr, w.Pred, false)

	default:
		//nal:allow-panic unreachable: Node.resolve refuses a plan holding an expression outside this switch (planList.expr) before anything opens
		panic("algebra: unresolved expression " + e.String())
	}
}

// quantifier compiles ∃x ∈ range: p (exists) and ∀x ∈ range: p: per outer
// row the range plan runs to its end under env ◦ row, then p is tested on
// the outer row extended by x, range tuple by range tuple, until one decides.
func (c *scope) quantifier(x, rangeAttr string, p Expr, exists bool) RowExpr {
	sub := c.sub()
	env := c.env
	from, bound := sub.Schema.Lay.Slot(rangeAttr)
	lay, to := c.sc.Lay.Extend(x)
	pred := c.exprOver(Schema{Lay: lay,
		Nested: nestedWith(c.sc.Nested, x, sub.Schema.nested(rangeAttr))}, p)
	// The predicate reads slots and keeps nothing of the row it is tested
	// on, so one probe row and one range buffer serve every outer row.
	probe := make([]value.Value, lay.Width())
	var buf []value.Row
	return func(ctx *Ctx, r value.Row) value.Value {
		ctx.Stats.NestedEvals++
		buf = sub.rows(ctx, rowEnv(env, r), buf[:0])
		copy(probe, r.Vals)
		for _, t := range buf {
			probe[to] = nil
			if bound {
				probe[to] = t.Vals[from]
			}
			if value.EffectiveBool(pred(ctx, value.Row{Lay: lay, Vals: probe})) == exists {
				return value.Bool(exists)
			}
		}
		return value.Bool(!exists)
	}
}

// rows opens the resolved plan under env and appends everything it produces
// to dst: the per-outer-tuple evaluation of a nested plan. Its operators
// charge the budget and poll cancellation themselves; holding the result
// charges nothing more, as in NestedApply.Eval.
func (n *Node) rows(ctx *Ctx, env value.Tuple, dst []value.Row) []value.Row {
	it := n.open(ctx, env)
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

// rowEnv materializes env ◦ row as the environment a nested plan opens
// under — only the nested-loop path pays this, once per outer row.
func rowEnv(env value.Tuple, r value.Row) value.Tuple {
	out := make(value.Tuple, len(env)+len(r.Vals))
	for k, v := range env {
		out[k] = v
	}
	names := r.Lay.Names()
	for i, v := range r.Vals {
		if v != nil {
			out[names[i]] = v
		}
	}
	return out
}

// compiledCmd is one slot-compiled Ξ command.
type compiledCmd struct {
	lit   string
	e     RowExpr
	isLit bool
}

func (c *scope) commands(cs []Command) []compiledCmd {
	out := make([]compiledCmd, len(cs))
	for i, cmd := range cs {
		if cmd.IsLit {
			out[i] = compiledCmd{lit: cmd.Lit, isLit: true}
		} else {
			out[i] = compiledCmd{e: c.expr(cmd.E)}
		}
	}
	return out
}

func execCompiled(ctx *Ctx, r value.Row, cs []compiledCmd) {
	for _, c := range cs {
		if c.isLit {
			ctx.EmitLit(c.lit)
			continue
		}
		ctx.EmitValue(c.e(ctx, r))
	}
}

// rowKey computes the canonical grouping/join key of a row over slots. One-
// and two-column keys (the common cases) are allocation-free composites;
// wider keys fold into one string.
func rowKey(r value.Row, slots []int) value.HashKey {
	return value.KeyOfSlots(r.Vals, slots)
}

// tupleHashKey is rowKey for map tuples (group members inside TupleSeq
// values, and every definitional evaluator — which must key identically to
// the slot engine so both agree on matches, groups and partition order).
func tupleHashKey(t value.Tuple, attrs []string) value.HashKey {
	return value.KeyOfAttrs(t, attrs)
}
