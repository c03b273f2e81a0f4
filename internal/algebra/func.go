package algebra

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

	"nalquery/internal/value"
)

// builtins is the name → arity table of the item-level builtin library:
// evalBuiltin implements these names, and the translator rejects a call of
// any other name, or with an argument count outside [min, max].
var builtins = map[string]struct{ min, max int }{
	"true": {0, 0}, "false": {0, 0}, "not": {1, 1}, "boolean": {1, 1},
	"exists": {1, 1}, "empty": {1, 1}, "count": {1, 1}, "zero-or-one": {1, 1}, "exactly-one": {1, 1},
	"string": {1, 1}, "decimal": {1, 1}, "number": {1, 1}, "data": {1, 1}, "unordered": {1, 1},
	"distinct-values": {1, 1}, "min": {1, 1}, "max": {1, 1}, "sum": {1, 1}, "avg": {1, 1},
	"abs": {1, 1}, "floor": {1, 1}, "ceiling": {1, 1}, "round": {1, 1},
	"concat": {2, math.MaxInt}, "string-join": {2, 2}, "contains": {2, 2}, "starts-with": {2, 2}, "ends-with": {2, 2},
	"string-length": {1, 1}, "upper-case": {1, 1}, "lower-case": {1, 1}, "normalize-space": {1, 1},
	"substring": {2, 3}, "substring-before": {2, 2}, "substring-after": {2, 2}, "translate": {3, 3},
}

// BuiltinArity reports whether fn names a builtin function and the range of
// argument counts it takes.
func BuiltinArity(fn string) (min, max int, ok bool) {
	a, ok := builtins[fn]
	return a.min, a.max, ok
}

// evalBuiltin implements the item-level builtin function library used by the
// paper's queries, one case per name of builtins.
func evalBuiltin(fn string, args []value.Value) value.Value {
	switch fn {
	case "true":
		return value.Bool(true)
	case "false":
		return value.Bool(false)
	case "not":
		return value.Bool(!value.EffectiveBool(arg(args, 0)))
	case "exists":
		return value.Bool(nonEmpty(arg(args, 0)))
	case "empty":
		return value.Bool(!nonEmpty(arg(args, 0)))
	case "count":
		return value.Int(int64(itemCount(arg(args, 0))))
	case "string":
		return value.Str(stringArg(args, 0))
	case "decimal", "number":
		f, ok := value.Number(arg(args, 0))
		if !ok {
			return value.Null{}
		}
		return value.Float(f)
	case "concat":
		var sb strings.Builder
		for _, a := range args {
			WriteValue(&sb, a)
		}
		return value.Str(sb.String())
	case "contains":
		s, ok := value.AtomText(arg(args, 0))
		sub, ok2 := value.AtomText(arg(args, 1))
		return value.Bool(ok && ok2 && strings.Contains(s, sub))
	case "distinct-values":
		return distinctValues(arg(args, 0))
	case "min", "max", "sum", "avg":
		return aggregate(fn, value.AppendItems(nil, arg(args, 0)))
	case "unordered":
		// unordered(e) signals that the result order is irrelevant (paper
		// Sec. 1). This engine's operators all preserve order anyway, so the
		// function is the identity; it is accepted so that queries written
		// for unordered processors run unchanged.
		return arg(args, 0)
	case "data":
		return value.Atomize(arg(args, 0))
	case "string-length":
		return value.Int(int64(utf8.RuneCountInString(stringArg(args, 0))))
	case "starts-with":
		s, ok := value.AtomText(arg(args, 0))
		p, ok2 := value.AtomText(arg(args, 1))
		return value.Bool(ok && ok2 && strings.HasPrefix(s, p))
	case "ends-with":
		s, ok := value.AtomText(arg(args, 0))
		p, ok2 := value.AtomText(arg(args, 1))
		return value.Bool(ok && ok2 && strings.HasSuffix(s, p))
	case "upper-case":
		return value.Str(strings.ToUpper(stringArg(args, 0)))
	case "lower-case":
		return value.Str(strings.ToLower(stringArg(args, 0)))
	case "normalize-space":
		return value.Str(strings.Join(strings.Fields(stringArg(args, 0)), " "))
	case "substring":
		// substring(s, start[, length]) with XQuery's 1-based positions.
		s := stringArg(args, 0)
		start, ok := value.Number(arg(args, 1))
		if !ok {
			return value.Str("")
		}
		runes := []rune(s)
		lo := int(start) - 1
		hi := len(runes)
		if len(args) > 2 {
			ln, ok := value.Number(arg(args, 2))
			if !ok {
				return value.Str("")
			}
			hi = lo + int(ln)
		}
		if lo < 0 {
			lo = 0
		}
		if hi > len(runes) {
			hi = len(runes)
		}
		if lo >= hi {
			return value.Str("")
		}
		return value.Str(string(runes[lo:hi]))
	case "substring-before":
		s, sub := stringArg(args, 0), stringArg(args, 1)
		if i := strings.Index(s, sub); i >= 0 && sub != "" {
			return value.Str(s[:i])
		}
		return value.Str("")
	case "substring-after":
		s, sub := stringArg(args, 0), stringArg(args, 1)
		if i := strings.Index(s, sub); i >= 0 && sub != "" {
			return value.Str(s[i+len(sub):])
		}
		return value.Str("")
	case "string-join":
		items := value.AppendItems(nil, arg(args, 0))
		sep := stringArg(args, 1)
		parts := make([]string, len(items))
		for i, a := range items {
			parts[i], _ = value.AtomText(a)
		}
		return value.Str(strings.Join(parts, sep))
	case "translate":
		s, from, to := stringArg(args, 0), []rune(stringArg(args, 1)), []rune(stringArg(args, 2))
		var sb strings.Builder
		for _, r := range s {
			replaced := false
			for i, f := range from {
				if r == f {
					replaced = true
					if i < len(to) {
						sb.WriteRune(to[i])
					}
					break
				}
			}
			if !replaced {
				sb.WriteRune(r)
			}
		}
		return value.Str(sb.String())
	case "abs":
		f, ok := value.Number(arg(args, 0))
		if !ok {
			return value.Null{}
		}
		if f < 0 {
			f = -f
		}
		return value.Float(f)
	case "floor":
		f, ok := value.Number(arg(args, 0))
		if !ok {
			return value.Null{}
		}
		return value.Float(math.Floor(f))
	case "ceiling":
		f, ok := value.Number(arg(args, 0))
		if !ok {
			return value.Null{}
		}
		return value.Float(math.Ceil(f))
	case "round":
		f, ok := value.Number(arg(args, 0))
		if !ok {
			return value.Null{}
		}
		// XPath rounds halves towards positive infinity.
		return value.Float(math.Floor(f + 0.5))
	case "boolean":
		return value.Bool(value.EffectiveBool(arg(args, 0)))
	case "zero-or-one":
		v := arg(args, 0)
		if itemCount(v) > 1 {
			return value.Null{}
		}
		return v
	case "exactly-one":
		v := arg(args, 0)
		if itemCount(v) != 1 {
			return value.Null{}
		}
		return v
	default:
		// The translator accepts no other name; an unknown function of a
		// hand-built plan is empty on both evaluators.
		return value.Null{}
	}
}

func arg(args []value.Value, i int) value.Value {
	if i < len(args) {
		return args[i]
	}
	return value.Null{}
}

// stringArg atomizes the i-th argument to a string; empty values map to "".
func stringArg(args []value.Value, i int) string {
	s, _ := value.AtomText(arg(args, i))
	return s
}

func nonEmpty(v value.Value) bool {
	switch w := v.(type) {
	case nil, value.Null:
		return false
	case value.Seq:
		return len(w) > 0
	case value.TupleSeq:
		return len(w) > 0
	case value.RowSeq:
		return w.Len() > 0
	default:
		return true
	}
}

func itemCount(v value.Value) int {
	switch w := v.(type) {
	case nil, value.Null:
		return 0
	case value.Seq:
		return len(w)
	case value.TupleSeq:
		return len(w)
	case value.RowSeq:
		return w.Len()
	default:
		return 1
	}
}

// distinctValues implements XQuery's distinct-values on an item sequence:
// atomize and remove duplicates. Like ΠD it need not preserve order but must
// be deterministic; we keep first-occurrence order, which satisfies both
// requirements. Only a value that is kept is atomized into the result.
func distinctValues(v value.Value) value.Seq {
	items := value.AppendItems(nil, v)
	seen := make(map[value.HashKey]struct{}, len(items))
	var out value.Seq
	for _, a := range items {
		k := value.KeyOf(a)
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, value.AtomizeSingle(a))
		}
	}
	return out
}

// aggregate folds min, max, sum or avg over items (atoms, or nodes read
// through their string value), reading each as value.Number does. If every
// item is a number the result is numeric, and min and max are the first and
// the last item in sort order (value.Compare3: NaN before every other
// number); otherwise min and max compare the items' text and sum and avg are
// empty.
func aggregate(fn string, items value.Seq) value.Value {
	if len(items) == 0 {
		if fn == "sum" {
			return value.Int(0)
		}
		return value.Null{}
	}
	allNum := true
	var best, sum float64
	win := 0
	for i, a := range items {
		f, ok := value.Number(a)
		if !ok {
			allNum = false
			break
		}
		sum += f
		if i == 0 || (fn == "min" && value.Compare3(a, items[win]) < 0) || (fn == "max" && value.Compare3(a, items[win]) > 0) {
			best, win = f, i
		}
	}
	if allNum {
		switch fn {
		case "min", "max":
			// A winner that is a Float already is the result; boxing its
			// number again would allocate the same value. (Not -0, which
			// value.Number reads as 0.)
			if f, ok := items[win].(value.Float); ok && math.Float64bits(float64(f)) == math.Float64bits(best) {
				return items[win]
			}
			return value.Float(best)
		case "sum":
			return value.Float(sum)
		case "avg":
			return value.Float(sum / float64(len(items)))
		}
	}
	if fn == "min" || fn == "max" {
		best, _ := value.AtomText(items[0])
		for _, a := range items[1:] {
			s, _ := value.AtomText(a)
			if (fn == "min" && s < best) || (fn == "max" && s > best) {
				best = s
			}
		}
		return value.Str(best)
	}
	return value.Null{}
}

// SeqFunc is the function f in operator subscripts such as Γg;θA;f and
// χg:f(σ...(e2)): a function from an ordered tuple sequence to a value.
// Implementations must assign a meaningful value to the empty sequence
// (Sec. 2) — that value becomes the outer join default f() in Eqvs. 2 and 4.
type SeqFunc interface {
	Apply(ctx *Ctx, env value.Tuple, ts value.TupleSeq) value.Value
	String() string
	// FreeVars appends free variables of embedded predicates.
	FreeVars(dst map[string]bool)
}

// rowSeqRows appends the members of a sequence to dst as rows.
func rowSeqRows(rs value.RowSeq, dst []value.Row) []value.Row {
	for i := 0; i < rs.Len(); i++ {
		dst = append(dst, rs.At(i))
	}
	return dst
}

// SFIdent is the identity function id.
type SFIdent struct{}

// Apply implements SeqFunc.
func (SFIdent) Apply(_ *Ctx, _ value.Tuple, ts value.TupleSeq) value.Value {
	if ts == nil {
		return value.TupleSeq{}
	}
	return ts
}

func (SFIdent) String() string { return "id" }

// FreeVars implements SeqFunc.
func (SFIdent) FreeVars(map[string]bool) {}

// SFCount counts the tuples of the sequence; the empty group counts 0.
type SFCount struct{}

// Apply implements SeqFunc.
func (SFCount) Apply(_ *Ctx, _ value.Tuple, ts value.TupleSeq) value.Value {
	return value.Int(int64(len(ts)))
}

func (SFCount) String() string { return "count" }

// FreeVars implements SeqFunc.
func (SFCount) FreeVars(map[string]bool) {}

// SFProject projects every tuple onto Attrs (f = ΠA). The empty group stays
// the empty sequence.
type SFProject struct{ Attrs []string }

// Apply implements SeqFunc.
func (p SFProject) Apply(_ *Ctx, _ value.Tuple, ts value.TupleSeq) value.Value {
	out := make(value.TupleSeq, len(ts))
	for i, t := range ts {
		out[i] = t.Project(p.Attrs)
	}
	return out
}

func (p SFProject) String() string { return "Π" + strings.Join(p.Attrs, ",") }

// FreeVars implements SeqFunc.
func (SFProject) FreeVars(map[string]bool) {}

// SFAgg is an aggregate f = agg ∘ ΠAttr: min, max, sum, avg over the
// atomized values of one attribute. The empty group yields NULL (0 for sum),
// the paper's "meaningful value for empty groups".
type SFAgg struct {
	Fn   string // min | max | sum | avg
	Attr string
}

// Apply implements SeqFunc.
func (a SFAgg) Apply(_ *Ctx, _ value.Tuple, ts value.TupleSeq) value.Value {
	var items value.Seq
	for _, t := range ts {
		items = value.AppendItems(items, t[a.Attr])
	}
	return aggregate(a.Fn, items)
}

func (a SFAgg) String() string { return fmt.Sprintf("%s∘Π%s", a.Fn, a.Attr) }

// FreeVars implements SeqFunc.
func (SFAgg) FreeVars(map[string]bool) {}

// SFFiltered composes a sequence function with a selection: f ∘ σp, the form
// used by Eqvs. 8 and 9 (count ∘ σp). The predicate sees the group tuple's
// bindings concatenated onto the invoking environment.
type SFFiltered struct {
	Pred  Expr
	Inner SeqFunc
}

// Apply implements SeqFunc.
func (f SFFiltered) Apply(ctx *Ctx, env value.Tuple, ts value.TupleSeq) value.Value {
	var kept value.TupleSeq
	for _, t := range ts {
		if value.EffectiveBool(f.Pred.Eval(ctx, env.Concat(t))) {
			kept = append(kept, t)
		}
	}
	return f.Inner.Apply(ctx, env, kept)
}

func (f SFFiltered) String() string {
	return fmt.Sprintf("%s∘σ[%s]", f.Inner.String(), f.Pred.String())
}

// FreeVars implements SeqFunc.
func (f SFFiltered) FreeVars(dst map[string]bool) {
	f.Pred.FreeVars(dst)
	f.Inner.FreeVars(dst)
}
