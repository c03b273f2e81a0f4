package algebra

import (
	"testing"

	"nalquery/internal/value"
)

func TestSortStable(t *testing.T) {
	in := constOp{
		ts: value.TupleSeq{
			{"k": value.Int(2), "v": value.Str("a")},
			{"k": value.Int(1), "v": value.Str("b")},
			{"k": value.Int(2), "v": value.Str("c")},
			{"k": value.Int(1), "v": value.Str("d")},
		},
		attrs: []string{"k", "v"},
	}
	out := eval(t, Sort{In: in, By: []string{"k"}})
	want := []string{"b", "d", "a", "c"} // stable within equal keys
	for i, w := range want {
		if out[i]["v"].String() != w {
			t.Fatalf("stable sort wrong: %s", out)
		}
	}
}

func TestSortNumericVsString(t *testing.T) {
	in := constOp{
		ts: value.TupleSeq{
			{"k": value.Str("10")},
			{"k": value.Str("9")},
			{"k": value.Str("2")},
		},
		attrs: []string{"k"},
	}
	out := eval(t, Sort{In: in, By: []string{"k"}})
	// Numeric comparison: 2 < 9 < 10 (not lexicographic "10" < "2" < "9").
	if out[0]["k"].String() != "2" || out[2]["k"].String() != "10" {
		t.Fatalf("numeric sort wrong: %s", out)
	}
}

func TestSortEmptyFirst(t *testing.T) {
	in := constOp{
		ts: value.TupleSeq{
			{"k": value.Int(1)},
			{"k": value.Null{}},
		},
		attrs: []string{"k"},
	}
	out := eval(t, Sort{In: in, By: []string{"k"}})
	if _, isNull := out[0]["k"].(value.Null); !isNull {
		t.Fatalf("NULL must sort first: %s", out)
	}
}
