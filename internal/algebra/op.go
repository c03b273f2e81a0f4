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
				e.FreeVars(local)
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

// ProjectDistinct is the duplicate-eliminating projection ΠD with optional
// renaming (ΠD A′:A). It is not order-preserving per the paper, but it must
// be deterministic and idempotent; first-occurrence order satisfies both.
type ProjectDistinct struct {
	In    Op
	Pairs []Rename // New:Old; use New==Old for plain ΠD
}

// Eval implements Op.
func (p ProjectDistinct) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := p.In.Eval(ctx, env)
	olds := make([]string, len(p.Pairs))
	for i, r := range p.Pairs {
		olds[i] = r.Old
	}
	seen := make(map[value.HashKey]bool, len(in))
	var out value.TupleSeq
	for _, t := range in {
		nt := make(value.Tuple, len(p.Pairs))
		for _, r := range p.Pairs {
			nt[r.New] = t[r.Old]
		}
		if k := value.KeyOfAttrs(t, olds); !seen[k] {
			ctx.charge(TripDedup, 0, dedupEntryBytes)
			seen[k] = true
			out = append(out, nt)
		}
	}
	return out
}

func (p ProjectDistinct) String() string {
	parts := make([]string, len(p.Pairs))
	for i, r := range p.Pairs {
		if r.New == r.Old {
			parts[i] = r.New
		} else {
			parts[i] = r.New + ":" + r.Old
		}
	}
	return "ΠD[" + strings.Join(parts, ",") + "]"
}

// Children implements Op.
func (p ProjectDistinct) Children() []Op { return []Op{p.In} }

// MapChildren implements Op.
func (p ProjectDistinct) MapChildren(f func(Op) Op) Op { p.In = f(p.In); return p }

// Exprs implements Op.
func (p ProjectDistinct) Exprs() []Expr { return nil }

// Attrs implements Op.
func (p ProjectDistinct) Attrs() ([]string, bool) {
	out := make([]string, len(p.Pairs))
	for i, r := range p.Pairs {
		out[i] = r.New
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
// translate; the µ operator proper pads empty groups with ⊥ (see Unnest).
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

// Cross is the order-preserving cross product e1 × e2: for every left tuple
// in order, all right tuples in order.
type Cross struct{ L, R Op }

// Eval implements Op.
func (c Cross) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	l := c.L.Eval(ctx, env)
	if len(l) == 0 {
		return nil
	}
	r := c.R.Eval(ctx, env)
	ctx.ChargeTuples(TripBuild, r)
	var out value.TupleSeq
	for _, lt := range l {
		for _, rt := range r {
			out = append(out, lt.Concat(rt))
		}
	}
	return out
}

func (Cross) String() string { return "×" }

// Children implements Op.
func (c Cross) Children() []Op { return []Op{c.L, c.R} }

// MapChildren implements Op.
func (c Cross) MapChildren(f func(Op) Op) Op { c.L, c.R = f(c.L), f(c.R); return c }

// Exprs implements Op.
func (Cross) Exprs() []Expr { return nil }

// Attrs implements Op.
func (c Cross) Attrs() ([]string, bool) {
	l, ok1 := c.L.Attrs()
	r, ok2 := c.R.Attrs()
	if !ok1 || !ok2 {
		return nil, false
	}
	return unionAttrs(l, r), true
}
