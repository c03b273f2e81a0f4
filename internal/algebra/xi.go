package algebra

import (
	"fmt"
	"io"
	"strings"

	"nalquery/internal/dom"
	"nalquery/internal/value"
)

// Command is one element of a Ξ command list: either a literal string copied
// to the output stream or an expression whose value is printed.
type Command struct {
	Lit   string
	E     Expr
	IsLit bool
}

// LitCmd builds a literal command.
func LitCmd(s string) Command { return Command{Lit: s, IsLit: true} }

// ExprCmd builds an expression command.
func ExprCmd(e Expr) Command { return Command{E: e} }

func (c Command) String() string {
	if c.IsLit {
		return fmt.Sprintf("%q", c.Lit)
	}
	return c.E.String()
}

func cmdStrings(cs []Command) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, ";")
}

func execCommands(ctx *Ctx, env value.Tuple, t value.Tuple, cs []Command) {
	for _, c := range cs {
		if c.IsLit {
			ctx.EmitLit(c.Lit)
			continue
		}
		ctx.EmitValue(c.E.Eval(ctx, env.Concat(t)))
	}
}

// WriteValue streams the printed form of v into out, following the paper's
// simplified Ξ semantics: strings are copied (escaped), element nodes are
// serialized, attribute and text nodes contribute their data, sequences
// concatenate their items, and tuple sequences concatenate the values of
// their tuples. It is the one serializer: concat writes its arguments
// through it too.
func WriteValue(out StringWriter, v value.Value) {
	switch w := v.(type) {
	case nil, value.Null:
	case value.NodeVal:
		if w.Node == nil {
			return
		}
		switch w.Node.Kind() {
		case dom.KindAttribute, dom.KindText:
			out.WriteString(w.Node.Data())
		default:
			if iow, ok := out.(io.Writer); ok {
				_ = dom.WriteXML(iow, w.Node)
			} else {
				out.WriteString(dom.XMLString(w.Node))
			}
		}
	case value.Seq:
		for _, item := range w {
			WriteValue(out, item)
		}
	case value.TupleSeq:
		for _, t := range w {
			t.EachValue(func(v value.Value) { WriteValue(out, v) })
		}
	case value.RowSeq:
		for i := 0; i < w.Len(); i++ {
			w.EachValue(i, func(v value.Value) { WriteValue(out, v) })
		}
	case value.Str:
		out.WriteString(dom.EscapeText(string(w)))
	default:
		// A number prints into the sink's own buffer where it lends one
		// (bufio.Writer, bytes.Buffer — every sink Results.WriteXML wraps),
		// so its digits are never built as a string first.
		if n, ok := v.(interface{ Append([]byte) []byte }); ok {
			if bw, ok := out.(interface {
				AvailableBuffer() []byte
				Write([]byte) (int, error)
			}); ok {
				_, _ = bw.Write(n.Append(bw.AvailableBuffer())) // sinks keep their own write error
				return
			}
		}
		out.WriteString(v.String())
	}
}

// XiSimple is the simple form of the Ξ result-construction operator: it
// executes its command list for every input tuple as a side effect on the
// output stream and returns its input (Sec. 2).
type XiSimple struct {
	In   Op
	Cmds []Command
}

// Eval implements Op.
func (x XiSimple) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := x.In.Eval(ctx, env)
	for _, t := range in {
		execCommands(ctx, env, t, x.Cmds)
	}
	return in
}

func (x XiSimple) String() string { return fmt.Sprintf("Ξ[%s]", cmdStrings(x.Cmds)) }

// Children implements Op.
func (x XiSimple) Children() []Op { return []Op{x.In} }

// MapChildren implements Op.
func (x XiSimple) MapChildren(f func(Op) Op) Op { x.In = f(x.In); return x }

// Exprs implements Op.
func (x XiSimple) Exprs() []Expr {
	var out []Expr
	for _, c := range x.Cmds {
		if !c.IsLit {
			out = append(out, c.E)
		}
	}
	return out
}

// Attrs implements Op.
func (x XiSimple) Attrs() ([]string, bool) { return x.In.Attrs() }

// XiGroup is the group-detecting form s1Ξs3A;s2 (Sec. 2): the input is
// grouped on A (order-preserving first-occurrence groups, as produced by
// Γg;=A;id); for every group, S1 runs on the group's first tuple, S2 on
// every tuple of the group, and S3 on the last tuple. It saves materializing
// a sequence-valued group attribute.
type XiGroup struct {
	In         Op
	By         []string
	S1, S2, S3 []Command
}

// Eval implements Op.
func (x XiGroup) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := x.In.Eval(ctx, env)
	ctx.ChargeTuples(TripGroup, in)
	keys, buckets := partition(in, x.By)
	for _, k := range keys {
		grp := buckets[k]
		execCommands(ctx, env, grp[0], x.S1)
		for _, t := range grp {
			execCommands(ctx, env, t, x.S2)
		}
		execCommands(ctx, env, grp[len(grp)-1], x.S3)
	}
	return in
}

func (x XiGroup) String() string {
	return fmt.Sprintf("Ξ[%s | %s ; %s | %s]", cmdStrings(x.S1), strings.Join(x.By, ","),
		cmdStrings(x.S2), cmdStrings(x.S3))
}

// Children implements Op.
func (x XiGroup) Children() []Op { return []Op{x.In} }

// MapChildren implements Op.
func (x XiGroup) MapChildren(f func(Op) Op) Op { x.In = f(x.In); return x }

// Exprs implements Op.
func (x XiGroup) Exprs() []Expr {
	var out []Expr
	for _, cs := range [][]Command{x.S1, x.S2, x.S3} {
		for _, c := range cs {
			if !c.IsLit {
				out = append(out, c.E)
			}
		}
	}
	return out
}

// Attrs implements Op.
func (x XiGroup) Attrs() ([]string, bool) { return x.In.Attrs() }

// eachNested calls visit with every nested algebraic expression in an
// operator's subscripts — NestedApply, ∃ and ∀, those in a sequence
// function's predicate included — and its plan, in evaluation order: an
// expression before its sequence function, a range before its predicate,
// operands left to right.
func eachNested(o Op, visit func(in Expr, plan Op)) {
	var expr func(e Expr)
	fn := func(f SeqFunc) {
		for w, ok := f.(SFFiltered); ok; w, ok = w.Inner.(SFFiltered) {
			expr(w.Pred)
		}
	}
	expr = func(e Expr) {
		switch w := e.(type) {
		case nil:
			return
		case NestedApply:
			visit(e, w.Plan)
			fn(w.F)
		case ExistsQ:
			visit(e, w.Range)
		case ForallQ:
			visit(e, w.Range)
		case AggOfAttr:
			expr(w.Attr)
			fn(w.F)
			return
		}
		for i := 0; e.Child(i) != nil; i++ {
			expr(e.Child(i))
		}
	}
	for _, e := range o.Exprs() {
		expr(e)
	}
}

// Explain renders an operator tree as an indented multi-line plan; the plans
// of nested algebraic expressions hang below the operator that evaluates
// them per tuple.
func Explain(op Op) string {
	var sb strings.Builder
	var walk func(o Op, depth int)
	walk = func(o Op, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(o.String())
		sb.WriteByte('\n')
		for _, c := range o.Children() {
			walk(c, depth+1)
		}
		eachNested(o, func(in Expr, plan Op) {
			label := "nested:\n"
			switch in.(type) {
			case ExistsQ:
				label = "∃-range:\n"
			case ForallQ:
				label = "∀-range:\n"
			}
			sb.WriteString(strings.Repeat("  ", depth+1))
			sb.WriteString(label)
			walk(plan, depth+2)
		})
	}
	walk(op, 0)
	return sb.String()
}

// ExplainDot renders an operator tree in Graphviz dot syntax. Nested
// algebraic expressions inside subscripts appear as dashed edges hanging
// off the operator that evaluates them per tuple — making the nested-loop
// structure the unnesting equivalences remove visually apparent.
func ExplainDot(op Op) string {
	var sb strings.Builder
	sb.WriteString("digraph plan {\n  node [shape=box, fontname=\"monospace\"];\n")
	id := 0
	var walk func(o Op) int
	walk = func(o Op) int {
		me := id
		id++
		fmt.Fprintf(&sb, "  n%d [label=%q];\n", me, o.String())
		for _, c := range o.Children() {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", me, walk(c))
		}
		eachNested(o, func(in Expr, plan Op) {
			var label string
			switch w := in.(type) {
			case NestedApply:
				label = "nested " + w.F.String()
			case ExistsQ:
				label = "exists " + w.Var
			case ForallQ:
				label = "forall " + w.Var
			}
			fmt.Fprintf(&sb, "  n%d -> n%d [style=dashed, label=%q];\n", me, walk(plan), label)
		})
		return me
	}
	walk(op)
	sb.WriteString("}\n")
	return sb.String()
}
