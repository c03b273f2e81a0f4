package xpath

import (
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xmlgen"
)

// Path.Eval appends every step into two reused node buffers and converts
// once. refEval is the definition it must agree with: per step, per context
// node, a fresh selection, the positional predicate on that selection, then
// one merge into document order.

func refEval(p Path, ctx value.Value) []*dom.Node {
	cur := refContext(ctx)
	for _, st := range p.Steps {
		var out []*dom.Node
		for _, n := range cur {
			var sel []*dom.Node
			switch st.Axis {
			case AxisChild:
				sel = n.ChildElements(st.Name)
			case AxisDescendant:
				sel = refDescendants(n, st.Name)
			case AxisAttribute:
				for a := n.FirstAttr(); a != nil; a = a.NextSibling() {
					if st.Name == "" || a.Name() == st.Name {
						sel = append(sel, a)
					}
				}
			}
			switch {
			case st.Pos == PosLast && len(sel) > 0:
				sel = sel[len(sel)-1:]
			case st.Pos > len(sel):
				sel = nil
			case st.Pos > 0:
				sel = sel[st.Pos-1 : st.Pos]
			}
			out = append(out, sel...)
		}
		dom.SortDocOrder(out)
		cur = cur[:0]
		for i, n := range out {
			if i == 0 || n != out[i-1] {
				cur = append(cur, n)
			}
		}
	}
	return cur
}

func refContext(v value.Value) []*dom.Node {
	switch w := v.(type) {
	case value.NodeVal:
		if w.Node != nil {
			return []*dom.Node{w.Node}
		}
	case value.Seq:
		var out []*dom.Node
		for _, item := range w {
			out = append(out, refContext(item)...)
		}
		return out
	}
	return nil
}

func refDescendants(n *dom.Node, name string) []*dom.Node {
	var out []*dom.Node
	for c := n.FirstChild(); c != nil; c = c.NextSibling() {
		if c.Kind() != dom.KindElement {
			continue
		}
		if name == "" || c.Name() == name {
			out = append(out, c)
		}
		out = append(out, refDescendants(c, name)...)
	}
	return out
}

func TestEvalMatchesStepDefinition(t *testing.T) {
	cfg := xmlgen.DefaultConfig(12)
	cfg.AuthorsPerBook = 3
	docs := []*dom.Document{xmlgen.Bib(cfg), xmlgen.Reviews(cfg), xmlgen.Prices(cfg),
		xmlgen.Users(cfg), xmlgen.Items(cfg), xmlgen.Bids(cfg)}

	for _, d := range docs {
		elems := d.Root.Descendants("", nil)
		names := map[string]bool{}
		attrs := map[string]bool{}
		for _, e := range elems {
			names[e.Name()] = true
			for a := e.FirstAttr(); a != nil; a = a.NextSibling() {
				attrs[a.Name()] = true
			}
		}
		// Every axis × {no predicate, [1], [2], [last()], past the end} ×
		// {each name in the document, *, a name it does not have}.
		var steps []Step
		names[""], names["nosuch"] = true, true
		attrs[""], attrs["nosuch"] = true, true
		for name := range names {
			for _, pos := range []int{0, 1, 2, PosLast, 99} {
				steps = append(steps, Step{AxisChild, name, pos}, Step{AxisDescendant, name, pos})
			}
		}
		for name := range attrs {
			steps = append(steps, Step{Axis: AxisAttribute, Name: name})
		}

		root := value.NodeVal{Node: d.Root}
		some := value.NodeVal{Node: elems[len(elems)/2]}
		contexts := []value.Value{
			root, some, value.NodeVal{Node: elems[0]},
			nil, value.Null{}, value.NodeVal{}, value.Str("x"), value.Seq{},
			// Several nodes, overlapping subtrees, a duplicate, out of order,
			// with NULL, a nil node and a nested sequence in between.
			value.Seq{some, root, value.Null{}, some, value.NodeVal{}, value.Seq{value.NodeVal{Node: elems[1]}, value.Int(1)}},
			value.NodeSeq(elems),
		}
		check := func(p Path) {
			for _, ctx := range contexts {
				got, want := p.Eval(ctx), refEval(p, ctx)
				if len(want) == 0 {
					if got != nil {
						t.Fatalf("%s %s on %v: empty result is %#v, want the nil sequence", d.URI, p, ctx, got)
					}
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%s %s on %v: %d nodes, want %d", d.URI, p, ctx, len(got), len(want))
				}
				for i, v := range got {
					if n, ok := v.(value.NodeVal); !ok || n.Node != want[i] {
						t.Fatalf("%s %s on %v: item %d is %v, want %v", d.URI, p, ctx, i, v, value.NodeVal{Node: want[i]})
					}
				}
			}
		}
		for _, st := range steps {
			check(Path{Steps: []Step{st}})
		}
		// Two and three steps: the buffers swap roles and a merged context
		// feeds the next step.
		for i, a := range steps {
			b, c := steps[(i*7+3)%len(steps)], steps[(i*13+5)%len(steps)]
			check(Path{Steps: []Step{a, b}})
			check(Path{Steps: []Step{b, a, c}})
		}
	}
}

// TestEvalAllocations: a path over one node allocates its result and nothing
// else, and nothing at all when the result is empty.
func TestEvalAllocations(t *testing.T) {
	d := xmlgen.Bib(xmlgen.DefaultConfig(5))
	book := value.Value(value.NodeVal{Node: d.Root.Descendants("book", nil)[0]})
	var sink value.Seq
	for path, want := range map[string]float64{
		"title": 1, "author": 1, "@year": 1, "author[last()]": 1, "*": 1, "nosuch": 0, "@nosuch": 0, "title/nosuch": 0,
	} {
		p := MustParse(path)
		if got := testing.AllocsPerRun(100, func() { sink = p.Eval(book) }); got > want {
			t.Errorf("%s over one node: %.1f allocations, want ≤ %.0f", path, got, want)
		}
	}
	_ = sink
}
