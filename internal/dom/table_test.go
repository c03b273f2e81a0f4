package dom

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The table against the pointer tree it replaced: every accessor is checked
// on random documents against the straightforward recursive definition over
// the reference tree the Builder was fed.

// number assigns the ranks the pointer tree's Done assigned: a node, then
// its attributes, then its children. NALB2's persisted FirstOrder/LastOrder
// and value's bag keys are written in this numbering.
func number(r *refNode, next *int) {
	r.order = *next
	*next++
	for _, a := range r.attrs {
		a.order = *next
		*next++
	}
	for _, c := range r.kids {
		number(c, next)
	}
}

func (r *refNode) stringValue() string {
	if r.kind == KindAttribute || r.kind == KindText {
		return r.data
	}
	var sb strings.Builder
	for _, c := range r.kids {
		sb.WriteString(c.stringValue())
	}
	return sb.String()
}

func (r *refNode) descendants(name string, dst []int) []int {
	for _, c := range r.kids {
		if c.kind == KindElement {
			if name == "" || c.name == name {
				dst = append(dst, c.order)
			}
			dst = c.descendants(name, dst)
		}
	}
	return dst
}

func (r *refNode) childElements(name string) []int {
	var out []int
	for _, c := range r.kids {
		if c.kind == KindElement && (name == "" || c.name == name) {
			out = append(out, c.order)
		}
	}
	return out
}

func (r *refNode) size() int {
	n := 1 + len(r.attrs)
	for _, c := range r.kids {
		n += c.size()
	}
	return n
}

func ranks(nodes []*Node) []int {
	var out []int
	for _, n := range nodes {
		out = append(out, n.Order())
	}
	return out
}

// checkNode compares the table's node of r's rank with r, and recurses.
func checkNode(t *testing.T, d *Document, r *refNode) {
	t.Helper()
	n := d.Node(r.order)
	if n.Kind() != r.kind || n.Name() != r.name || n.Order() != r.order {
		t.Fatalf("rank %d: %s %q ranked %d, want %s %q", r.order, n.Kind(), n.Name(), n.Order(), r.kind, r.name)
	}
	wantData := ""
	if r.kind == KindAttribute || r.kind == KindText {
		wantData = r.data
	}
	if n.Data() != wantData {
		t.Fatalf("rank %d: Data %q, want %q", r.order, n.Data(), wantData)
	}
	if got, want := n.StringValue(), r.stringValue(); got != want {
		t.Fatalf("rank %d (%s %q): StringValue %q, want %q", r.order, r.kind, r.name, got, want)
	}
	if n.End() != r.order+r.size() {
		t.Fatalf("rank %d: End %d, want %d", r.order, n.End(), r.order+r.size())
	}
	switch p := n.Parent(); {
	case r.parent == nil && p != nil:
		t.Fatalf("rank %d: document node has parent %d", r.order, p.Order())
	case r.parent != nil && p != d.Node(r.parent.order):
		t.Fatalf("rank %d: wrong parent", r.order)
	}

	// Attributes and children through FirstAttr/FirstChild/NextSibling.
	var refAttrs, refKids []int
	for _, a := range r.attrs {
		refAttrs = append(refAttrs, a.order)
	}
	for _, c := range r.kids {
		refKids = append(refKids, c.order)
	}
	if got := ranks(attrs(n)); !slices.Equal(got, refAttrs) {
		t.Fatalf("rank %d: attributes %v, want %v", r.order, got, refAttrs)
	}
	if got := ranks(kids(n)); !slices.Equal(got, refKids) {
		t.Fatalf("rank %d: children %v, want %v", r.order, got, refKids)
	}
	for _, name := range []string{"k", "x1", "id", "", "nosuch"} {
		var want *Node
		for _, a := range r.attrs {
			if a.name == name {
				want = d.Node(a.order)
				break
			}
		}
		if n.Attr(name) != want {
			t.Fatalf("rank %d: Attr(%q) wrong", r.order, name)
		}
	}

	// Name tests: every name in use, the wildcard, an attribute-only name
	// and one the document does not have.
	for _, name := range []string{"a", "b", "c", "item", "x1", "root", "", "k", "nosuch"} {
		if r.kind == KindAttribute || r.kind == KindText {
			break
		}
		if got, want := ranks(n.Descendants(name, nil)), r.descendants(name, nil); !slices.Equal(got, want) {
			t.Fatalf("rank %d: Descendants(%q) %v, want %v", r.order, name, got, want)
		}
		want := r.childElements(name)
		if got := ranks(n.ChildElements(name)); !slices.Equal(got, want) {
			t.Fatalf("rank %d: ChildElements(%q) %v, want %v", r.order, name, got, want)
		}
		first := n.FirstChildElement(name)
		if (first == nil) != (len(want) == 0) || first != nil && first.Order() != want[0] {
			t.Fatalf("rank %d: FirstChildElement(%q) wrong", r.order, name)
		}
	}

	for _, a := range r.attrs {
		checkNode(t, d, a)
	}
	for _, c := range r.kids {
		checkNode(t, d, c)
	}
}

func TestTableMatchesReferenceTree(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	for seed := int64(0); seed < int64(rounds); seed++ {
		ref := randTree(rand.New(rand.NewSource(seed)), true)
		total := 0
		number(ref, &total)
		d := build(ref, "rand.xml")
		if d.NumNodes() != total || d.Root != d.Node(0) {
			t.Fatalf("seed %d: %d nodes, want %d", seed, d.NumNodes(), total)
		}
		checkNode(t, d, ref)
	}
}

// TestStringValueIsOneSubstring: the cases the text slab's layout has to get
// right — mixed content, empty elements, adjacent and empty text nodes, and
// attribute values, which must stay out of every element's string value.
func TestStringValueIsOneSubstring(t *testing.T) {
	b := NewBuilder("s.xml")
	b.Begin("r").Attrib("note", "ATTR")
	b.Text("a").Text("b").Text("")
	b.Begin("e").Attrib("v", "HIDDEN").End()
	b.Begin("m").Text("c").Begin("i").Attrib("w", "NO").Text("d").End().Text("e").End()
	b.Text("f")
	b.End()
	d := b.Done()
	r := d.RootElement()
	for name, want := range map[string]string{"e": "", "m": "cde", "i": "d"} {
		if got := r.Descendants(name, nil)[0].StringValue(); got != want {
			t.Errorf("<%s>: %q, want %q", name, got, want)
		}
	}
	if got := r.StringValue(); got != "abcdef" {
		t.Errorf("<r>: %q", got)
	}
	if got := d.Root.StringValue(); got != "abcdef" {
		t.Errorf("document node: %q", got)
	}
	if got := r.Attr("note").StringValue(); got != "ATTR" {
		t.Errorf("@note: %q", got)
	}
	if got := XMLString(d.Root); got != `<r note="ATTR">ab<e v="HIDDEN"/><m>c<i w="NO">d</i>e</m>f</r>` {
		t.Errorf("serialization: %s", got)
	}
}

// TestBuilderSpansChunks: a document larger than one row chunk, with a text
// node larger than one slab chunk, is copied into its slabs intact.
func TestBuilderSpansChunks(t *testing.T) {
	long := strings.Repeat("0123456789", slabChunk/4)
	b := NewBuilder("big.xml")
	b.Begin("r")
	for i := 0; i < 3*rowChunk; i++ {
		b.Begin("e").Attrib("i", "v").Text("x").End()
	}
	b.Begin("long").Text(long).End()
	b.End()
	d := b.Done()
	if d.NumNodes() != 2+9*rowChunk+2 {
		t.Fatalf("%d nodes", d.NumNodes())
	}
	for i := 0; i < d.NumNodes(); i++ {
		if d.Node(i).Order() != i {
			t.Fatalf("row %d carries rank %d", i, d.Node(i).Order())
		}
	}
	if got := d.RootElement().FirstChildElement("long").StringValue(); got != long {
		t.Errorf("long text damaged: %d bytes, want %d", len(got), len(long))
	}
	if got, want := d.RootElement().StringValue(), strings.Repeat("x", 3*rowChunk)+long; got != want {
		t.Errorf("root string value damaged")
	}
}

func TestAttribAfterChildPanics(t *testing.T) {
	for name, misuse := range map[string]func(b *Builder){
		"after text":    func(b *Builder) { b.Begin("e").Text("x").Attrib("a", "1") },
		"after element": func(b *Builder) { b.Begin("e").Begin("c").End().Attrib("a", "1") },
		"in child's stead": func(b *Builder) {
			b.Begin("e").Attrib("a", "1").Begin("c").Attrib("b", "2").End().Attrib("c", "3")
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Attrib did not panic", name)
				}
			}()
			misuse(NewBuilder("p.xml"))
		}()
	}
}

// TestTooLargeIsAnError: a document that outgrows the table's int32 ranks
// or offsets fails the load with ErrTooLarge; no offset wraps. The limit is
// lowered here — the real one needs 2 GiB of input.
func TestTooLargeIsAnError(t *testing.T) {
	small := func(limit int) *Builder {
		b := NewBuilder("huge.xml")
		b.limit = limit
		return b
	}
	for name, tc := range map[string]struct {
		limit int
		xml   string
	}{
		"rows":       {5, `<r><a/><b/><c/><d/></r>`},
		"text bytes": {12, `<r><a>0123456</a><b>789012</b></r>`},
		"attr bytes": {12, `<r a="0123456" b="789012"/>`},
	} {
		if _, err := parse(tc.xml, small(tc.limit)); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: err = %v, want ErrTooLarge", name, err)
		}
		if d, err := parse(tc.xml, small(tc.limit+1)); err != nil || XMLString(d.Root) != tc.xml {
			t.Errorf("%s: one more fits, but err = %v", name, err)
		}
	}
}
