package xpath

import (
	"slices"
	"sync"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xmlgen"
)

// Path.Append runs every step but the last through two reused node buffers
// and the last into the caller's. refEval is the definition it must agree
// with: per step, per context node, a fresh selection, the positional
// predicate on that selection, then one merge into document order.

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
		slices.SortStableFunc(out, dom.CompareOrder)
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

	for di, d := range docs {
		elems := d.Root.Descendants("", nil)
		other := value.NodeVal{Node: docs[(di+1)%len(docs)].Root}
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
			value.OfNodes(elems),
			// Another document, alone and between nodes of this one: a name
			// test is resolved per context node's document.
			other, value.Seq{some, other, root},
		}
		// The caller's buffer: never empty, so Append must leave what is in it
		// alone, and reused from path to path like a consumer's.
		marker := elems[0]
		buf := []*dom.Node{marker}
		// AppendNames keeps one Names across the contexts, which change
		// documents, as a consumer keeps one across its tuples.
		check := func(p Path) {
			var kept Names
			for _, ctx := range contexts {
				want := refEval(p, ctx)
				buf = p.Append(buf[:1], ctx)
				if buf[0] != marker || !slices.Equal(buf[1:], want) {
					t.Fatalf("%s %s on %v: appended %v behind %v, want %v behind it", d.URI, p, ctx, buf[1:], buf[0], want)
				}
				buf = p.AppendNames(buf[:1], ctx, &kept)
				if buf[0] != marker || !slices.Equal(buf[1:], want) {
					t.Fatalf("%s %s on %v under kept names: appended %v behind %v, want %v behind it", d.URI, p, ctx, buf[1:], buf[0], want)
				}
				if got, again := p.Eval(ctx), p.EvalNames(ctx, &kept); !value.DeepEqual(got, again) {
					t.Fatalf("%s %s on %v: Eval %v, EvalNames %v", d.URI, p, ctx, got, again)
				}
				// Eval is the same selection in the normal form.
				got := p.Eval(ctx)
				switch len(want) {
				case 0:
					if s, ok := got.(value.Seq); !ok || s != nil {
						t.Fatalf("%s %s on %v: empty result is %#v, want the nil sequence", d.URI, p, ctx, got)
					}
				case 1:
					if got != (value.NodeVal{Node: want[0]}) {
						t.Fatalf("%s %s on %v: one node is %#v, want the node itself", d.URI, p, ctx, got)
					}
				default:
					s, _ := got.(value.Seq)
					if len(s) != len(want) {
						t.Fatalf("%s %s on %v: %#v, want a sequence of %d nodes", d.URI, p, ctx, got, len(want))
					}
					for i, v := range s {
						if v != (value.NodeVal{Node: want[i]}) {
							t.Fatalf("%s %s on %v: item %d is %v, want %v", d.URI, p, ctx, i, v, value.NodeVal{Node: want[i]})
						}
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
		// No step at all is the context's own nodes.
		check(Path{})
	}
}

// TestEvalAllocations: navigating into a caller's buffer allocates nothing
// once the buffer has held a selection as large, whatever the size of the
// result — as long as no step before the last selects more than the eight
// nodes the stack buffers hold, which no per-tuple path of the paper's queries
// does; past that it is the intermediate selection that is allocated, never
// the result. As a value, no node and one node cost nothing either (the nil
// sequence and a NodeVal box free), and several cost the sequence and its
// header.
func TestEvalAllocations(t *testing.T) {
	cfg := xmlgen.DefaultConfig(5)
	cfg.AuthorsPerBook = 3
	d := xmlgen.Bib(cfg)
	book := value.Value(value.NodeVal{Node: d.Root.Descendants("book", nil)[0]})
	root := value.Value(value.NodeVal{Node: d.Root})
	var sink value.Value
	var buf []*dom.Node
	for _, c := range []struct {
		path          string
		ctx           value.Value
		nodes         int
		warm, asValue float64
	}{
		{"title", book, 1, 0, 0}, {"@year", book, 1, 0, 0},
		{"author[last()]", book, 1, 0, 0}, {"author[1]", book, 1, 0, 0}, {"author/last", book, 3, 0, 2},
		{"nosuch", book, 0, 0, 0}, {"@nosuch", book, 0, 0, 0}, {"title/nosuch", book, 0, 0, 0},
		{"author", book, 3, 0, 2}, {"*", book, 6, 0, 2},
		// A result larger than any stack buffer, merged from several contexts:
		// as a value it has outgrown Eval's own buffer too.
		{"//book/author", root, 15, 0, 3},
		// Fifteen authors are the context of the last step.
		{"//author/last", root, 15, 1, 4},
	} {
		p := MustParse(c.path)
		buf = p.Append(buf[:0], c.ctx) // warm
		if len(buf) != c.nodes {
			t.Fatalf("%s selects %d nodes, the table says %d", c.path, len(buf), c.nodes)
		}
		if got := testing.AllocsPerRun(100, func() { buf = p.Append(buf[:0], c.ctx) }); got > c.warm {
			t.Errorf("%s into a warm buffer: %.1f allocations, want ≤ %.0f", c.path, got, c.warm)
		}
		// Kept name tests cost nothing once they are resolved.
		var names Names
		buf = p.AppendNames(buf[:0], c.ctx, &names)
		if got := testing.AllocsPerRun(100, func() { buf = p.AppendNames(buf[:0], c.ctx, &names) }); got > c.warm {
			t.Errorf("%s under kept names: %.1f allocations, want ≤ %.0f", c.path, got, c.warm)
		}
		if got := testing.AllocsPerRun(100, func() { sink = p.Eval(c.ctx) }); got > c.asValue {
			t.Errorf("%s as a value: %.1f allocations, want ≤ %.0f", c.path, got, c.asValue)
		}
	}
	_ = sink
}

// TestNamesAreSharedSafely: one Names serves every run of a compiled path,
// so goroutines apply the path through it at once, to nodes of two
// documents whose name tables number the names differently, and each gets
// Append's selection (run under -race, this is the data-race check of the
// tests a call publishes).
func TestNamesAreSharedSafely(t *testing.T) {
	a := dom.NewBuilder("a.xml").Begin("r").Begin("x").End().Begin("y").End().Begin("y").End().End().Done()
	b := dom.NewBuilder("b.xml").Begin("r").Begin("y").End().Begin("x").End().End().Done()
	p := MustParse("r/y")
	ctxs := []value.Value{value.NodeVal{Node: a.Root}, value.NodeVal{Node: b.Root}}
	var names Names
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []*dom.Node
			for i := 0; i < 500; i++ {
				ctx := ctxs[(g+i/7)%2]
				want := p.Append(nil, ctx)
				if buf = p.AppendNames(buf[:0], ctx, &names); !slices.Equal(buf, want) {
					t.Errorf("goroutine %d, call %d: %v, want %v", g, i, buf, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
