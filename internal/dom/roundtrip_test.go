package dom

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Serializer/parser round-trip property over random documents: parsing the
// serialization reproduces the same tree (names, text, attributes,
// document-order ranks).

// refNode is the straightforward pointer tree the table is checked against:
// what the random generator draws, and what a Builder is then fed.
type refNode struct {
	kind   Kind
	name   string
	data   string
	attrs  []*refNode
	kids   []*refNode
	parent *refNode
	order  int
}

func (r *refNode) add(c *refNode) *refNode {
	c.parent = r
	if c.kind == KindAttribute {
		r.attrs = append(r.attrs, c)
	} else {
		r.kids = append(r.kids, c)
	}
	return c
}

// randTree draws a document. With adjacentText it also draws what a parser
// never produces but a Builder accepts: adjacent and empty text nodes.
func randTree(rng *rand.Rand, adjacentText bool) *refNode {
	names := []string{"a", "b", "c", "item", "x1"}
	var fill func(e *refNode, depth int)
	fill = func(e *refNode, depth int) {
		n := rng.Intn(4)
		if depth > 3 {
			n = 0
		}
		lastWasText := false
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				// Adjacent text siblings would merge on reparse; emit text
				// only after an element (or at the start).
				if lastWasText && !adjacentText {
					continue
				}
				data := "t" + string(rune('a'+rng.Intn(26)))
				if adjacentText && rng.Intn(4) == 0 {
					data = ""
				}
				e.add(&refNode{kind: KindText, data: data})
				lastWasText = true
			default:
				lastWasText = false
				c := e.add(&refNode{kind: KindElement, name: names[rng.Intn(len(names))]})
				for _, k := range []string{"k", "x1", "id"}[:rng.Intn(4)] {
					if rng.Intn(2) == 0 {
						c.add(&refNode{kind: KindAttribute, name: k, data: "v" + string(rune('0'+rng.Intn(10)))})
					}
				}
				fill(c, depth+1)
			}
		}
	}
	doc := &refNode{kind: KindDocument}
	fill(doc.add(&refNode{kind: KindElement, name: "root"}), 0)
	return doc
}

// build feeds the reference tree to a Builder.
func build(doc *refNode, uri string) *Document {
	b := NewBuilder(uri)
	var emit func(r *refNode)
	emit = func(r *refNode) {
		for _, c := range r.kids {
			if c.kind == KindText {
				b.Text(c.data)
				continue
			}
			b.Begin(c.name)
			for _, a := range c.attrs {
				b.Attrib(a.name, a.data)
			}
			emit(c)
			b.End()
		}
	}
	emit(doc)
	return b.Done()
}

func randDoc(rng *rand.Rand) *Document { return build(randTree(rng, false), "rand.xml") }

// kids and attrs list a node's children and attributes through the
// navigation accessors.
func kids(n *Node) []*Node {
	var out []*Node
	for c := n.FirstChild(); c != nil; c = c.NextSibling() {
		out = append(out, c)
	}
	return out
}

func attrs(n *Node) []*Node { return n.AppendAttrs(nil) }

func sameTree(a, b *Node) bool {
	if a.Kind() != b.Kind() || a.Name() != b.Name() || a.Data() != b.Data() {
		return false
	}
	ak, bk, aa, ba := kids(a), kids(b), attrs(a), attrs(b)
	if len(ak) != len(bk) || len(aa) != len(ba) {
		return false
	}
	for i := range aa {
		if aa[i].Name() != ba[i].Name() || aa[i].Data() != ba[i].Data() {
			return false
		}
	}
	for i := range ak {
		if !sameTree(ak[i], bk[i]) {
			return false
		}
	}
	return true
}

// TestSerializeParseRoundTrip: WriteXML → Parse reproduces the tree.
func TestSerializeParseRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	if testing.Short() {
		cfg.MaxCount = 40
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randDoc(rng)
		var sb strings.Builder
		if err := WriteXML(&sb, doc.Root); err != nil {
			return false
		}
		back, err := Parse(strings.NewReader(sb.String()), "rand.xml")
		if err != nil {
			return false
		}
		return sameTree(doc.Root, back.Root)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestRoundTripPreservesOrderRanks: document-order ranks are strictly
// increasing in a preorder walk after a round trip.
func TestRoundTripPreservesOrderRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	doc := randDoc(rng)
	var sb strings.Builder
	if err := WriteXML(&sb, doc.Root); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(sb.String()), "rand.xml")
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if n.Order() <= last {
			return false
		}
		last = n.Order()
		for _, c := range kids(n) {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	if !walk(back.Root) {
		t.Errorf("document-order ranks not strictly increasing after round trip")
	}
}
