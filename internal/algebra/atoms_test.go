package algebra

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
)

// The aggregates, distinct-values and the string builtins read items in
// place (numbers as they are, nodes through their string value). These
// tests hold them to their definitions over atomized values: every atom
// rendered as text and parsed back.

func atomTestItems(t *testing.T) []value.Value {
	t.Helper()
	doc, err := dom.ParseString(`<r><a>7</a><a> 2.50 </a><a>abc</a><a/><a>-0</a><a>ABC d</a></r>`, "t.xml")
	if err != nil {
		t.Fatal(err)
	}
	items := []value.Value{
		value.Int(0), value.Int(3), value.Int(-4), value.Int(math.MaxInt64), value.Int(1<<53 + 1),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(2.5), value.Float(-1e300),
		value.Float(1<<53 + 2), value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(0.1),
		value.Str("1"), value.Str("1.0"), value.Str(" 1 "), value.Str("-0"), value.Str("NaN"),
		value.Str("abc"), value.Str(""), value.Str("1e3"), value.Str("0x10"), value.Str("Z"),
		value.Bool(true), value.Bool(false),
	}
	for _, n := range doc.Root.Descendants("a", nil) {
		items = append(items, value.NodeVal{Node: n})
	}
	return items
}

// refNumber is the atom rule's number of an atom, read from its text: a
// Bool is 1 or 0, anything else is a number when its trimmed text parses.
func refNumber(a value.Value) (float64, bool) {
	if b, ok := a.(value.Bool); ok {
		if b {
			return 1, true
		}
		return 0, true
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(a.String()), 64)
	return f, err == nil
}

// refAggregate is the aggregate over atoms as it is defined: text in, text
// parsed, and min/max the first/last number in sort order (NaN first).
func refAggregate(fn string, atoms value.Seq) value.Value {
	if len(atoms) == 0 {
		if fn == "sum" {
			return value.Int(0)
		}
		return value.Null{}
	}
	var nums []float64
	for _, a := range atoms {
		f, ok := refNumber(a)
		if !ok {
			nums = nil
			break
		}
		nums = append(nums, f)
	}
	less := func(x, y float64) bool { return x < y || x != x && y == y }
	if nums != nil {
		best, sum := nums[0], 0.0
		for _, f := range nums {
			sum += f
			if (fn == "min" && less(f, best)) || (fn == "max" && less(best, f)) {
				best = f
			}
		}
		switch fn {
		case "min", "max":
			return value.Float(best)
		case "sum":
			return value.Float(sum)
		}
		return value.Float(sum / float64(len(nums)))
	}
	if fn == "min" || fn == "max" {
		best := atoms[0].String()
		for _, a := range atoms[1:] {
			if s := a.String(); (fn == "min" && s < best) || (fn == "max" && s > best) {
				best = s
			}
		}
		return value.Str(best)
	}
	return value.Null{}
}

// sameValue compares results bit for bit (NaN equals NaN, -0 differs from 0).
func sameValue(a, b value.Value) bool {
	fa, ok := a.(value.Float)
	fb, ok2 := b.(value.Float)
	if ok || ok2 {
		return ok && ok2 && math.Float64bits(float64(fa)) == math.Float64bits(float64(fb))
	}
	return a.Kind() == b.Kind() && a.String() == b.String()
}

func TestAggregateMatchesTextRoundTrip(t *testing.T) {
	items := atomTestItems(t)
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 5000; iter++ {
		seq := make(value.Seq, rng.Intn(5))
		numericOnly := rng.Intn(2) == 0
		for i := range seq {
			for {
				seq[i] = items[rng.Intn(len(items))]
				if _, ok := refNumber(value.AtomizeSingle(seq[i])); ok || !numericOnly {
					break
				}
			}
		}
		for _, fn := range []string{"min", "max", "sum", "avg"} {
			want := refAggregate(fn, value.Atomize(seq))
			if got := aggregate(fn, value.AppendItems(nil, seq)); !sameValue(got, want) {
				t.Fatalf("%s(%v) = %v, defined as %v", fn, seq, got, want)
			}
			if got := evalBuiltin(fn, []value.Value{seq}); !sameValue(got, want) {
				t.Fatalf("builtin %s(%v) = %v, defined as %v", fn, seq, got, want)
			}
			ts := make(value.TupleSeq, len(seq))
			for i, v := range seq {
				ts[i] = value.Tuple{"x": v}
			}
			if got := (SFAgg{Fn: fn, Attr: "x"}).Apply(nil, nil, ts); !sameValue(got, want) {
				t.Fatalf("SFAgg %s(%v) = %v, defined as %v", fn, seq, got, want)
			}
		}
	}
}

// TestMinMaxReturnTheirWinningFloat: over Float items min and max return the
// winning item itself, boxing nothing (-0 still comes back as 0, the result
// TestAggregateMatchesTextRoundTrip holds them to).
func TestMinMaxReturnTheirWinningFloat(t *testing.T) {
	items := value.Seq{value.Float(2.5), value.Float(-1e300), value.Float(7.25)}
	for fn, want := range map[string]value.Value{"min": items[1], "max": items[2]} {
		if allocs := testing.AllocsPerRun(100, func() { sinkAgg = aggregate(fn, items) }); allocs != 0 || sinkAgg != want {
			t.Errorf("%s = %v with %.0f allocations, want %v with none", fn, sinkAgg, allocs, want)
		}
	}
}

var sinkAgg value.Value

// TestNodeTextIsReadInPlace: string() and data() of one node, and the text
// min and max of nodes, give the node's text as a NodeText — the string
// item read in place, with no allocation for one node.
func TestNodeTextIsReadInPlace(t *testing.T) {
	as := dom.MustParseString(`<r><a>b</a><a>a &amp; c</a></r>`, "t.xml").Root.Descendants("a", nil)
	one, two := value.NodeVal{Node: as[1]}, value.Seq{value.NodeVal{Node: as[0]}, value.NodeVal{Node: as[1]}}
	for _, c := range []struct {
		fn       string
		arg      value.Value
		want     *dom.Node
		noAllocs bool
	}{
		{"string", one, as[1], true}, {"data", one, as[1], true}, {"min", two, as[1], false}, {"max", two, as[0], false},
	} {
		args := []value.Value{c.arg}
		allocs := testing.AllocsPerRun(100, func() { sinkAgg = evalBuiltin(c.fn, args) })
		if sinkAgg != (value.NodeText{Node: c.want}) {
			t.Errorf("%s = %#v, want the NodeText of %q", c.fn, sinkAgg, c.want.StringValue())
		}
		if c.noAllocs && allocs != 0 {
			t.Errorf("%s of one node: %.0f allocations, want none", c.fn, allocs)
		}
	}
}

// TestDistinctValuesMatchesStringKeys: the key table keeps exactly the
// first atom of every class of CompareAtomic-equal atoms, in order.
func TestDistinctValuesMatchesStringKeys(t *testing.T) {
	items := atomTestItems(t)
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 2000; iter++ {
		seq := make(value.Seq, rng.Intn(12))
		for i := range seq {
			seq[i] = items[rng.Intn(len(items))]
		}
		var want value.Seq
		for _, a := range value.Atomize(seq) {
			if !slices.ContainsFunc(want, func(w value.Value) bool { return value.CompareAtomic(a, w, value.CmpEq) }) {
				want = append(want, a)
			}
		}
		got := distinctValues(seq)
		if len(got) != len(want) {
			t.Fatalf("distinct-values(%v) = %v, want %v", seq, got, want)
		}
		for i := range got {
			if _, isNode := got[i].(value.NodeVal); isNode || !sameValue(got[i], want[i]) {
				t.Fatalf("distinct-values(%v)[%d] = %#v, want %#v", seq, i, got[i], want[i])
			}
		}
	}
}

// TestStringBuiltinsMatchAtomizeSingle: the builtins that read their
// argument's text against the same functions over AtomizeSingle(v).String().
func TestStringBuiltinsMatchAtomizeSingle(t *testing.T) {
	items := append(atomTestItems(t), value.Null{}, nil, value.Seq{},
		value.Seq{value.Null{}, value.Str("ab")}, value.TupleSeq{{"x": value.Str("q r")}})
	text := func(v value.Value) (string, bool) {
		if a := value.AtomizeSingle(v); a != nil {
			return a.String(), true
		}
		return "", false
	}
	for _, a := range items {
		s, ok := text(a)
		want := map[string]value.Value{
			"string":          value.Str(s),
			"string-length":   value.Int(int64(len([]rune(s)))),
			"upper-case":      value.Str(strings.ToUpper(s)),
			"lower-case":      value.Str(strings.ToLower(s)),
			"normalize-space": value.Str(strings.Join(strings.Fields(s), " ")),
			"number":          value.Null{},
		}
		if a := value.AtomizeSingle(a); a != nil {
			if f, ok := refNumber(a); ok {
				want["number"] = value.Float(f)
			}
		}
		for fn, w := range want {
			if got := evalBuiltin(fn, []value.Value{a}); !sameValue(got, w) {
				t.Errorf("%s(%v) = %#v, want %#v", fn, a, got, w)
			}
		}
		for _, b := range items {
			s2, ok2 := text(b)
			for fn, f := range map[string]func(string, string) bool{
				"contains": strings.Contains, "starts-with": strings.HasPrefix, "ends-with": strings.HasSuffix,
			} {
				w := value.Bool(ok && ok2 && f(s, s2))
				if got := evalBuiltin(fn, []value.Value{a, b}); got != w {
					t.Errorf("%s(%v, %v) = %v, want %v", fn, a, b, got, w)
				}
			}
		}
	}
	joined := evalBuiltin("string-join", []value.Value{value.Seq(atomTestItems(t)), value.Str("|")})
	var parts []string
	for _, a := range value.Atomize(value.Seq(atomTestItems(t))) {
		parts = append(parts, a.String())
	}
	wantStr(t, joined, strings.Join(parts, "|"))
}

// TestWriteValueNumbers: a number prints as its String() into every sink,
// and into a buffered sink without building that string.
func TestWriteValueNumbers(t *testing.T) {
	nums := []value.Value{value.Int(0), value.Int(-42), value.Int(math.MaxInt64), value.Float(3), value.Float(2.5),
		value.Float(math.Copysign(0, -1)), value.Float(1e21), value.Float(math.NaN()), value.Bool(true)}
	for _, v := range nums {
		var sb strings.Builder
		var bb bytes.Buffer
		bw := bufio.NewWriterSize(&bytes.Buffer{}, 4) // too small to lend room: the append grows
		var under bytes.Buffer
		bw.Reset(&under)
		WriteValue(&sb, v)
		WriteValue(&bb, value.Seq{v, v})
		WriteValue(bw, v)
		bw.Flush()
		if sb.String() != v.String() || bb.String() != v.String()+v.String() || under.String() != v.String() {
			t.Errorf("WriteValue(%v): builder %q, buffer %q, bufio %q", v, sb.String(), bb.String(), under.String())
		}
	}
	bw := bufio.NewWriter(io.Discard)
	f, i := value.Value(value.Float(12345.678)), value.Value(value.Int(1234567))
	if a := testing.AllocsPerRun(100, func() { WriteValue(bw, f); WriteValue(bw, i) }); a != 0 {
		t.Errorf("numbers into a bufio.Writer: %.1f allocations, want 0", a)
	}
}
