package algebra

import (
	"fmt"
	"sort"
	"strings"

	"nalquery/internal/value"
)

// Op is an algebraic operator of NAL. Operators evaluate to ordered tuple
// sequences. The env parameter carries the bindings of free variables: a
// nested algebraic expression inside another operator's subscript is
// evaluated once per outer tuple with that tuple as environment — the
// nested-loop strategy unnesting removes.
type Op interface {
	Eval(ctx *Ctx, env value.Tuple) value.TupleSeq
	// String renders the operator (without inputs) for plan explanation.
	String() string
	// Children returns the operator's algebraic inputs.
	Children() []Op
	// MapChildren returns the operator with every algebraic input replaced by
	// f of it, in Children() order — the one way to rebuild a plan, so a
	// walker names only the operators it rewrites.
	MapChildren(f func(Op) Op) Op
	// Exprs returns the scalar expressions in the operator's subscript.
	Exprs() []Expr
	// Attrs returns the statically known produced attribute set, and whether
	// it is known.
	Attrs() ([]string, bool)
}

// opFreeVars computes F(e) of an operator tree: variables referenced by
// subscript expressions that are not bound by attributes produced inside the
// tree.
func opFreeVars(op Op, dst map[string]bool) {
	local := map[string]bool{}
	var walk func(o Op)
	walk = func(o Op) {
		for _, e := range o.Exprs() {
			if e != nil {
				FreeVars(e, local)
			}
		}
		for _, c := range o.Children() {
			walk(c)
		}
	}
	walk(op)
	if attrs, ok := op.Attrs(); ok {
		for _, a := range attrs {
			delete(local, a)
		}
	} else {
		// Unknown schema: subtract everything any subtree introduces.
		var sub func(o Op)
		sub = func(o Op) {
			if attrs, ok := o.Attrs(); ok {
				for _, a := range attrs {
					delete(local, a)
				}
			}
			for _, c := range o.Children() {
				sub(c)
			}
		}
		sub(op)
	}
	for k := range local {
		dst[k] = true
	}
}

// FreeVars adds F(e), the free variables of the expression e, to dst. A
// nested plan binds its own attributes, the predicates of its sequence
// function read the invoking tuple, and a quantifier binds its variable in
// its predicate but not in its range; every other form's free variables are
// those of its sub-expressions.
func FreeVars(e Expr, dst map[string]bool) {
	switch w := e.(type) {
	case Var:
		dst[w.Name] = true
	case NestedApply:
		opFreeVars(w.Plan, dst)
		for f, ok := w.F.(SFFiltered); ok; f, ok = f.Inner.(SFFiltered) {
			FreeVars(f.Pred, dst)
		}
	case ExistsQ:
		quantFreeVars(w.Range, w.Var, w.Pred, dst)
	case ForallQ:
		quantFreeVars(w.Range, w.Var, w.Pred, dst)
	default:
		for i := 0; e.Child(i) != nil; i++ {
			FreeVars(e.Child(i), dst)
		}
	}
}

// quantFreeVars adds the free variables of a quantifier over rng binding v
// in pred to dst.
func quantFreeVars(rng Op, v string, pred Expr, dst map[string]bool) {
	opFreeVars(rng, dst)
	inner := map[string]bool{}
	FreeVars(pred, inner)
	delete(inner, v)
	for k := range inner {
		dst[k] = true
	}
}

// FreeVarsOf returns the sorted free variables of an operator tree.
func FreeVarsOf(op Op) []string {
	m := map[string]bool{}
	opFreeVars(op, m)
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func unionAttrs(a, b []string) []string {
	out := append([]string{}, a...)
	seen := map[string]bool{}
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

// Singleton is the □ operator: it returns a singleton sequence consisting of
// the empty tuple (Sec. 2).
type Singleton struct{}

// Eval implements Op.
func (Singleton) Eval(*Ctx, value.Tuple) value.TupleSeq {
	return value.TupleSeq{value.EmptyTuple()}
}

func (Singleton) String() string { return "□" }

// Children implements Op.
func (Singleton) Children() []Op { return nil }

// MapChildren implements Op.
func (s Singleton) MapChildren(func(Op) Op) Op { return s }

// Exprs implements Op.
func (Singleton) Exprs() []Expr { return nil }

// Attrs implements Op.
func (Singleton) Attrs() ([]string, bool) { return nil, true }

// Select is the order-preserving selection σp.
type Select struct {
	In   Op
	Pred Expr
}

// Eval implements Op.
func (s Select) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := s.In.Eval(ctx, env)
	var out value.TupleSeq
	for _, t := range in {
		if value.EffectiveBool(s.Pred.Eval(ctx, env.Concat(t))) {
			out = append(out, t)
		}
	}
	return out
}

func (s Select) String() string { return fmt.Sprintf("σ[%s]", s.Pred.String()) }

// Children implements Op.
func (s Select) Children() []Op { return []Op{s.In} }

// MapChildren implements Op.
func (s Select) MapChildren(f func(Op) Op) Op { s.In = f(s.In); return s }

// Exprs implements Op.
func (s Select) Exprs() []Expr { return []Expr{s.Pred} }

// Attrs implements Op.
func (s Select) Attrs() ([]string, bool) { return s.In.Attrs() }

// Project is ΠA: projection onto a list of attributes.
type Project struct {
	In    Op
	Names []string
}

// Eval implements Op.
func (p Project) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := p.In.Eval(ctx, env)
	out := make(value.TupleSeq, len(in))
	for i, t := range in {
		out[i] = t.Project(p.Names)
	}
	return out
}

func (p Project) String() string { return "Π[" + strings.Join(p.Names, ",") + "]" }

// Children implements Op.
func (p Project) Children() []Op { return []Op{p.In} }

// MapChildren implements Op.
func (p Project) MapChildren(f func(Op) Op) Op { p.In = f(p.In); return p }

// Exprs implements Op.
func (p Project) Exprs() []Expr { return nil }

// Attrs implements Op.
func (p Project) Attrs() ([]string, bool) { return append([]string{}, p.Names...), true }

// ProjectDrop is Π-bar: drop a set of attributes.
type ProjectDrop struct {
	In    Op
	Names []string
}

// Eval implements Op.
func (p ProjectDrop) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := p.In.Eval(ctx, env)
	out := make(value.TupleSeq, len(in))
	for i, t := range in {
		out[i] = t.Drop(p.Names)
	}
	return out
}

func (p ProjectDrop) String() string { return "Π̄[" + strings.Join(p.Names, ",") + "]" }

// Children implements Op.
func (p ProjectDrop) Children() []Op { return []Op{p.In} }

// MapChildren implements Op.
func (p ProjectDrop) MapChildren(f func(Op) Op) Op { p.In = f(p.In); return p }

// Exprs implements Op.
func (p ProjectDrop) Exprs() []Expr { return nil }

// Attrs implements Op.
func (p ProjectDrop) Attrs() ([]string, bool) {
	in, ok := p.In.Attrs()
	if !ok {
		return nil, false
	}
	drop := map[string]bool{}
	for _, n := range p.Names {
		drop[n] = true
	}
	var out []string
	for _, a := range in {
		if !drop[a] {
			out = append(out, a)
		}
	}
	return out, true
}

// Rename is one A′:A pair of a renaming projection.
type Rename struct{ New, Old string }

// ProjectRename is ΠA′:A — rename attributes, keep the rest untouched.
type ProjectRename struct {
	In    Op
	Pairs []Rename
}

// Eval implements Op.
func (p ProjectRename) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := p.In.Eval(ctx, env)
	out := make(value.TupleSeq, len(in))
	for i, t := range in {
		out[i] = renameTuple(t, p.Pairs)
	}
	return out
}

// renameTuple applies the rename pairs as a simultaneous substitution on the
// original tuple, so chains and swaps (a→b, b→a) cannot clobber each other
// the way sequential in-place renaming does.
func renameTuple(t value.Tuple, pairs []Rename) value.Tuple {
	renamed := make(map[string]bool, len(pairs))
	for _, r := range pairs {
		if _, ok := t[r.Old]; ok {
			renamed[r.Old] = true
		}
	}
	nt := make(value.Tuple, len(t))
	for k, v := range t {
		if !renamed[k] {
			nt[k] = v
		}
	}
	for _, r := range pairs {
		if v, ok := t[r.Old]; ok {
			nt[r.New] = v
		}
	}
	return nt
}

func (p ProjectRename) String() string {
	parts := make([]string, len(p.Pairs))
	for i, r := range p.Pairs {
		parts[i] = r.New + ":" + r.Old
	}
	return "Π[" + strings.Join(parts, ",") + "]"
}

// Children implements Op.
func (p ProjectRename) Children() []Op { return []Op{p.In} }

// MapChildren implements Op.
func (p ProjectRename) MapChildren(f func(Op) Op) Op { p.In = f(p.In); return p }

// Exprs implements Op.
func (p ProjectRename) Exprs() []Expr { return nil }

// Attrs implements Op.
func (p ProjectRename) Attrs() ([]string, bool) {
	in, ok := p.In.Attrs()
	if !ok {
		return nil, false
	}
	ren := map[string]string{}
	for _, r := range p.Pairs {
		ren[r.Old] = r.New
	}
	out := make([]string, 0, len(in))
	for _, a := range in {
		if n, ok := ren[a]; ok {
			out = append(out, n)
		} else {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out, true
}

// Map is the map operator χa:e — it extends every input tuple by attribute a
// computed by evaluating e under the tuple's bindings (Sec. 2, Fig. 1).
type Map struct {
	In   Op
	Attr string
	E    Expr
}

// Eval implements Op.
func (m Map) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := m.In.Eval(ctx, env)
	out := make(value.TupleSeq, len(in))
	for i, t := range in {
		nt := t.Copy()
		nt[m.Attr] = m.E.Eval(ctx, env.Concat(t))
		out[i] = nt
	}
	return out
}

func (m Map) String() string { return fmt.Sprintf("χ[%s:%s]", m.Attr, m.E.String()) }

// Children implements Op.
func (m Map) Children() []Op { return []Op{m.In} }

// MapChildren implements Op.
func (m Map) MapChildren(f func(Op) Op) Op { m.In = f(m.In); return m }

// Exprs implements Op.
func (m Map) Exprs() []Expr { return []Expr{m.E} }

// Attrs implements Op.
func (m Map) Attrs() ([]string, bool) {
	in, ok := m.In.Attrs()
	if !ok {
		return nil, false
	}
	return unionAttrs(in, []string{m.Attr}), true
}

// UnnestMap is the Υa:e operator: µg(χg:e[a](e1)). It evaluates e to an item
// sequence and emits one tuple per item, in sequence order.
//
// Note: a tuple whose sequence is empty produces no output tuple. This
// matches XQuery's for-clause semantics, which is what Υ exists to
// translate; the paper's µ operator would pad an empty group with ⊥.
//
// PosAttr, when non-empty, additionally binds the 1-based position of each
// item within its sequence — the translation of XQuery's positional
// "for $x at $i in e" binding, a construct that only makes sense in the
// ordered context this engine preserves.
type UnnestMap struct {
	In      Op
	Attr    string
	E       Expr
	PosAttr string
}

// Eval implements Op.
func (u UnnestMap) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := u.In.Eval(ctx, env)
	var out value.TupleSeq
	for _, t := range in {
		// Scan-level cancellation point of the materializing reference
		// evaluator (every document traversal streams through Υ).
		if ctx.Cancelled() {
			break
		}
		items := value.AsSeq(u.E.Eval(ctx, env.Concat(t)))
		for i, item := range items {
			nt := t.Copy()
			nt[u.Attr] = item
			if u.PosAttr != "" {
				nt[u.PosAttr] = value.Int(int64(i + 1))
			}
			ctx.ChargeTuple(TripScan, nt)
			out = append(out, nt)
		}
	}
	ctx.Stats.Tuples += int64(len(out))
	return out
}

func (u UnnestMap) String() string {
	if u.PosAttr != "" {
		return fmt.Sprintf("Υ[%s at %s:%s]", u.Attr, u.PosAttr, u.E.String())
	}
	return fmt.Sprintf("Υ[%s:%s]", u.Attr, u.E.String())
}

// Children implements Op.
func (u UnnestMap) Children() []Op { return []Op{u.In} }

// MapChildren implements Op.
func (u UnnestMap) MapChildren(f func(Op) Op) Op { u.In = f(u.In); return u }

// Exprs implements Op.
func (u UnnestMap) Exprs() []Expr { return []Expr{u.E} }

// Attrs implements Op.
func (u UnnestMap) Attrs() ([]string, bool) {
	in, ok := u.In.Attrs()
	if !ok {
		return nil, false
	}
	add := []string{u.Attr}
	if u.PosAttr != "" {
		add = append(add, u.PosAttr)
	}
	return unionAttrs(in, add), true
}
