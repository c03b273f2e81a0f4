package value

import (
	"testing"

	"nalquery/internal/dom"
)

func TestTupleConcatProjectDrop(t *testing.T) {
	a := Tuple{"x": Int(1), "y": Str("s")}
	b := Tuple{"z": Float(2.5)}
	c := a.Concat(b)
	if len(c) != 3 || !DeepEqual(c["z"], Float(2.5)) {
		t.Fatalf("concat wrong: %s", c)
	}
	p := c.Project([]string{"x", "z"})
	if len(p) != 2 || !DeepEqual(p["x"], Int(1)) {
		t.Fatalf("project wrong: %s", p)
	}
	d := c.Drop([]string{"y"})
	if len(d) != 2 {
		t.Fatalf("drop wrong: %s", d)
	}
	if _, ok := d["y"]; ok {
		t.Fatalf("drop kept y")
	}
	// Originals untouched.
	if len(a) != 2 || len(b) != 1 {
		t.Fatalf("concat mutated inputs")
	}
}

func TestNullTuple(t *testing.T) {
	nt := NullTuple([]string{"a", "b"})
	if len(nt) != 2 {
		t.Fatalf("⊥ size %d", len(nt))
	}
	for _, v := range nt {
		if _, ok := v.(Null); !ok {
			t.Fatalf("⊥ attribute not NULL: %v", v)
		}
	}
}

func TestBindSeq(t *testing.T) {
	ts := BindSeq(Seq{Int(1), Int(2)}, "a")
	if len(ts) != 2 || !DeepEqual(ts[1]["a"], Int(2)) {
		t.Fatalf("e[a] wrong: %s", ts)
	}
	if len(BindSeq(nil, "a")) != 0 {
		t.Fatalf("e[a] of empty must be empty")
	}
}

func TestAsSeq(t *testing.T) {
	if got := AsSeq(Null{}); len(got) != 0 {
		t.Fatalf("AsSeq(NULL) = %v", got)
	}
	if got := AsSeq(Int(1)); len(got) != 1 {
		t.Fatalf("AsSeq(item) = %v", got)
	}
	if got := AsSeq(Seq{Int(1), Int(2)}); len(got) != 2 {
		t.Fatalf("AsSeq(seq) = %v", got)
	}
	ts := TupleSeq{{"a": Int(1)}, {"a": Seq{Int(2), Int(3)}}}
	if got := AsSeq(ts); len(got) != 3 {
		t.Fatalf("AsSeq(tupleseq) = %v", got)
	}
}

func TestValueStrings(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Float(42), "42"},
		{Float(42.5), "42.5"},
		{Str("x"), "x"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Null{}, ""},
		{Seq{Int(1), Int(2)}, "1 2"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestNodeValString(t *testing.T) {
	doc := dom.MustParseString(`<r><a>hi</a></r>`, "t.xml")
	a := doc.RootElement().FirstChildElement("a")
	nv := NodeVal{Node: a}
	if nv.String() != "<a>hi</a>" {
		t.Fatalf("element NodeVal serializes, got %q", nv.String())
	}
	txt := NodeVal{Node: a.FirstChild()}
	if txt.String() != "hi" {
		t.Fatalf("text NodeVal is its data, got %q", txt.String())
	}
}

func TestTupleStringDeterministic(t *testing.T) {
	tp := Tuple{"b": Int(2), "a": Int(1)}
	if tp.String() != "[a: 1, b: 2]" {
		t.Fatalf("tuple string %q", tp.String())
	}
}
