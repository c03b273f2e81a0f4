package algebra

import (
	"sort"
	"strings"

	"nalquery/internal/value"
)

// Sort orders its input stably by the given attributes in the sort order of
// the atom rule (value.Compare3, consistent with the predicate semantics). A stable sort is exactly what the group-detecting Ξ
// requires of its producers (Sec. 2: "this condition can be met by a
// stable(!) sort"). Dirs optionally flips individual keys to descending
// (the order by clause); a nil Dirs sorts every key ascending.
type Sort struct {
	In Op
	By []string
	// Dirs[i] = true sorts By[i] descending. Empty values sort first on
	// ascending keys and last on descending ones.
	Dirs []bool
}

// Eval implements Op.
func (s Sort) Eval(ctx *Ctx, env value.Tuple) value.TupleSeq {
	in := s.In.Eval(ctx, env)
	ctx.ChargeTuples(TripSort, in)
	out := in.Copy()
	sort.SliceStable(out, func(i, j int) bool {
		return lessTuplesDirs(out[i], out[j], s.By, s.Dirs)
	})
	return out
}

// lessTuplesDirs is cmpRowsDirs over map tuples: the same value.Compare3
// per key, so both evaluators sort alike.
func lessTuplesDirs(a, b value.Tuple, by []string, dirs []bool) bool {
	for i, k := range by {
		c := value.Compare3(a[k], b[k])
		if c == 0 {
			continue
		}
		if i < len(dirs) && dirs[i] {
			return c > 0
		}
		return c < 0
	}
	return false
}

func (s Sort) String() string {
	parts := make([]string, len(s.By))
	for i, k := range s.By {
		parts[i] = k
		if i < len(s.Dirs) && s.Dirs[i] {
			parts[i] += "↓"
		}
	}
	return "Sort[" + strings.Join(parts, ",") + "]"
}

// Children implements Op.
func (s Sort) Children() []Op { return []Op{s.In} }

// MapChildren implements Op.
func (s Sort) MapChildren(f func(Op) Op) Op { s.In = f(s.In); return s }

// Exprs implements Op.
func (s Sort) Exprs() []Expr { return nil }

// Attrs implements Op.
func (s Sort) Attrs() ([]string, bool) { return s.In.Attrs() }
