package algebra

import (
	"nalquery/internal/value"
)

// This file compiles subscript expressions against a resolved Schema:
// attribute references become slot reads, so the per-tuple cost of σ, χ, Υ
// and Ξ drops from map lookups (and the env.Concat map rebuild) to slice
// indexing. Nested algebraic expressions — the nested-loop strategy the
// unnesting equivalences remove — stay on the definitional evaluator behind
// an environment shim: they are exactly the slow path whose cost the paper
// measures, and compiling them away would change what the benchmarks
// compare.

// RowExpr is a slot-compiled expression, evaluated against one row.
type RowExpr func(ctx *Ctx, r value.Row) value.Value

// compileExpr compiles e against the input schema sc; env carries the
// bindings of free variables of the enclosing plan execution (fixed for the
// lifetime of one iterator tree, so free references resolve at compile
// time).
func compileExpr(e Expr, sc Schema, env value.Tuple) RowExpr {
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
		in := compileExpr(w.Input, sc, env)
		return func(ctx *Ctx, r value.Row) value.Value { return w.Path.Eval(in(ctx, r)) }

	case CmpExpr:
		l := compileExpr(w.L, sc, env)
		rr := compileExpr(w.R, sc, env)
		return func(ctx *Ctx, r value.Row) value.Value {
			return value.Bool(value.GeneralCompare(l(ctx, r), rr(ctx, r), w.Op))
		}

	case InExpr:
		item := compileExpr(w.Item, sc, env)
		seq := compileExpr(w.Seq, sc, env)
		return func(ctx *Ctx, r value.Row) value.Value {
			return value.Bool(value.Member(item(ctx, r), seq(ctx, r)))
		}

	case AndExpr:
		l := compileExpr(w.L, sc, env)
		rr := compileExpr(w.R, sc, env)
		return func(ctx *Ctx, r value.Row) value.Value {
			if !value.EffectiveBool(l(ctx, r)) {
				return value.Bool(false)
			}
			return value.Bool(value.EffectiveBool(rr(ctx, r)))
		}

	case OrExpr:
		l := compileExpr(w.L, sc, env)
		rr := compileExpr(w.R, sc, env)
		return func(ctx *Ctx, r value.Row) value.Value {
			if value.EffectiveBool(l(ctx, r)) {
				return value.Bool(true)
			}
			return value.Bool(value.EffectiveBool(rr(ctx, r)))
		}

	case NotExpr:
		in := compileExpr(w.E, sc, env)
		return func(ctx *Ctx, r value.Row) value.Value {
			return value.Bool(!value.EffectiveBool(in(ctx, r)))
		}

	case CondExpr:
		cond := compileExpr(w.If, sc, env)
		then := compileExpr(w.Then, sc, env)
		els := compileExpr(w.Else, sc, env)
		return func(ctx *Ctx, r value.Row) value.Value {
			if value.EffectiveBool(cond(ctx, r)) {
				return then(ctx, r)
			}
			return els(ctx, r)
		}

	case ArithExpr:
		l := compileExpr(w.L, sc, env)
		rr := compileExpr(w.R, sc, env)
		return func(ctx *Ctx, r value.Row) value.Value {
			return evalArith(w.Op, l(ctx, r), rr(ctx, r))
		}

	case Call:
		args := make([]RowExpr, len(w.Args))
		for i, a := range w.Args {
			args[i] = compileExpr(a, sc, env)
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
		in := compileExpr(w.E, sc, env)
		lay := value.NewLayout(w.Attr)
		return func(ctx *Ctx, r value.Row) value.Value {
			return value.BindRowSeqLay(lay, value.AsSeq(in(ctx, r)))
		}

	case AggOfAttr:
		attr := compileExpr(w.Attr, sc, env)
		if fnNeedsRowEnv(w.F, sc, exprNested(w.Attr, sc)) {
			// Free variables of f resolve from the current row: materialize
			// env ◦ row (the environment shim — not a data-path map tuple).
			// The applier closes over that per-row environment, so there is
			// nothing to cache across rows.
			return func(ctx *Ctx, r value.Row) value.Value {
				switch ts := attr(ctx, r).(type) {
				case value.TupleSeq:
					return w.F.Apply(ctx, rowEnv(env, r), ts)
				case value.RowSeq:
					return applyFnRowSeq(ctx, rowEnv(env, r), w.F, ts)
				}
				return value.Null{}
			}
		}
		// Payloads of one operator share a member layout: compile the
		// applier once per layout, not once per outer row, and reuse the
		// member buffer (no applier retains it — SFIdent, the one that
		// would, returns the payload before delegation). Iterator trees
		// evaluate single-threaded, so closure-local caching is safe.
		var cachedLay *value.Layout
		var cachedApply func(*Ctx, value.Tuple, []value.Row) value.Value
		var rowBuf []value.Row
		return func(ctx *Ctx, r value.Row) value.Value {
			switch ts := attr(ctx, r).(type) {
			case value.TupleSeq:
				return w.F.Apply(ctx, env, ts)
			case value.RowSeq:
				switch w.F.(type) {
				case SFIdent:
					return ts
				case SFCount:
					return value.Int(int64(ts.Len()))
				}
				if ts.Lay() != cachedLay {
					cachedLay = ts.Lay()
					cachedApply = groupApplier(w.F, cachedLay, env)
				}
				rowBuf = rowSeqRows(ts, rowBuf[:0])
				return cachedApply(ctx, env, rowBuf)
			}
			return value.Null{}
		}

	default:
		// Nested algebraic expressions (NestedApply, ExistsQ, ForallQ) and
		// unknown extensions: materialize the row as an environment and run
		// the definitional evaluator — the per-outer-tuple nested loop.
		return func(ctx *Ctx, r value.Row) value.Value {
			return e.Eval(ctx, rowEnv(env, r))
		}
	}
}

// evalArith mirrors ArithExpr.Eval on already-computed operands.
func evalArith(op byte, lv, rv value.Value) value.Value {
	l, lok := numArg(lv)
	r, rok := numArg(rv)
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
		// Guard the truncated divisor too: a fractional r in (-1, 1) passes
		// r != 0 but truncates to 0 and would panic the integer modulus.
		if int64(r) == 0 {
			return value.Null{}
		}
		return value.Float(float64(int64(l) % int64(r)))
	default:
		return value.Null{}
	}
}

// rowEnv materializes env ◦ row as a map tuple for the definitional
// evaluator — only the nested-loop slow path pays this.
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

// fnNeedsRowEnv reports whether a sequence function's free variables must be
// satisfied from the current row (then Apply needs the materialized env ◦
// row). Variables bound inside the group tuples (inner schema) shadow the
// environment, so they never force materialization.
func fnNeedsRowEnv(f SeqFunc, sc Schema, inner *Inner) bool {
	free := map[string]bool{}
	f.FreeVars(free)
	for name := range free {
		if inner != nil && inner.Lay != nil && inner.Lay.Has(name) {
			continue
		}
		if sc.Lay.Has(name) {
			return true
		}
	}
	return false
}

// compiledCmd is one slot-compiled Ξ command.
type compiledCmd struct {
	lit   string
	e     RowExpr
	isLit bool
}

func compileCommands(cs []Command, sc Schema, env value.Tuple) []compiledCmd {
	out := make([]compiledCmd, len(cs))
	for i, c := range cs {
		if c.IsLit {
			out[i] = compiledCmd{lit: c.Lit, isLit: true}
		} else {
			out[i] = compiledCmd{e: compileExpr(c.E, sc, env)}
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

// slotsOf resolves attribute names to slots under a layout; missing names
// report ok=false (the caller falls back to name-based access).
func slotsOf(lay *value.Layout, names []string) ([]int, bool) {
	out := make([]int, len(names))
	for i, n := range names {
		s, ok := lay.Slot(n)
		if !ok {
			return nil, false
		}
		out[i] = s
	}
	return out, true
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
