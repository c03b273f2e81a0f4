package algebra

import (
	"reflect"
	"sort"

	"nalquery/internal/value"
)

// The test fixtures feed plans from constOp leaves, which only the
// definitional Eval can read. native rewrites a plan for the row engine: every
// constOp — an input, or a leaf inside the plan of a nested expression —
// becomes what it stands for there, µD over one constant slot-backed payload
// whose members carry their position, so that µD keeps them all, projected to
// the declared attributes (an empty relation: Π over σ[false]), so that both
// evaluators run the same relation and the row engine runs nothing it would
// not run in production.

const (
	relAttr = "\x00rel"
	relPos  = "\x00pos"
)

func native(op Op) Op {
	return lowered(reflect.ValueOf(&op).Elem()).Interface().(Op)
}

// lowered copies v with every constOp held by an interface replaced by its
// native form. Only exported fields are descended into: operators,
// expressions and sequence functions have no others.
func lowered(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Interface:
		if v.IsNil() {
			return v
		}
		out := reflect.New(v.Type()).Elem()
		if c, ok := v.Elem().Interface().(constOp); ok {
			out.Set(reflect.ValueOf(c.native()))
		} else {
			out.Set(lowered(v.Elem()))
		}
		return out
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		out.Set(v)
		for i := 0; i < v.NumField(); i++ {
			if out.Field(i).CanSet() {
				out.Field(i).Set(lowered(v.Field(i)))
			}
		}
		return out
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(lowered(v.Index(i)))
		}
		return out
	}
	return v
}

func (c constOp) native() Op {
	attrs := append([]string(nil), c.attrs...)
	sort.Strings(attrs)
	if len(c.ts) == 0 {
		return Project{Names: attrs, In: Select{Pred: ConstVal{V: value.Bool(false)}, In: Singleton{}}}
	}
	ts := make(value.TupleSeq, len(c.ts))
	for i, t := range c.ts {
		ts[i] = t.Copy()
		ts[i][relPos] = value.Int(int64(i))
	}
	return Project{Names: attrs, In: UnnestDistinct{Attr: relAttr,
		In: Map{In: Singleton{}, Attr: relAttr, E: ConstVal{V: rowSeqOf(ts)}}}}
}

// rowSeqOf re-types map tuples — and the tuple sequences nested in them — as
// the slot-backed payload the row engine carries.
func rowSeqOf(ts value.TupleSeq) value.RowSeq {
	seen := map[string]bool{}
	var names []string
	for _, t := range ts {
		for a := range t {
			if !seen[a] {
				seen[a] = true
				names = append(names, a)
			}
		}
	}
	sort.Strings(names)
	lay := value.NewLayout(names...)
	flat := make([]value.Value, len(ts)*len(names))
	for i, t := range ts {
		for a, v := range t {
			if nested, ok := v.(value.TupleSeq); ok {
				v = rowSeqOf(nested)
			}
			slot, _ := lay.Slot(a)
			flat[i*len(names)+slot] = v
		}
	}
	return value.RowSeqOfFlat(lay, flat)
}
