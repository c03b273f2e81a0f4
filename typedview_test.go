package nalquery

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
)

// describe renders everything the typed view says about a value.
func describe(v Value) string {
	b, bok := v.Bool()
	i, iok := v.Int()
	f, fok := v.Float()
	var members []string
	for _, m := range v.Items() {
		members = append(members, m.Kind().String()+":"+m.NodeName()+":"+m.String())
	}
	return fmt.Sprintf("kind=%v name=%q bool=%v,%v int=%v,%v float=%v,%v string=%q xml=%q items=%v",
		v.Kind(), v.NodeName(), b, bok, i, iok, f, fok, v.String(), v.XML(), members)
}

// TestTypedViewSeesThroughOneMemberSequences: what the typed view answers is
// a property of the value, not of how a producer represented it — a sequence
// of one item is that item (XDM). Both representations of every item kind
// give the same answers; through queries, a path selecting one node is a
// node, a one-item distinct-values is its atom and several nodes are a
// sequence, on both evaluators and in both consumption modes.
func TestTypedViewSeesThroughOneMemberSequences(t *testing.T) {
	d := dom.MustParseString(`<bib><book year="1994"><title>A</title><author>X</author><author>Y</author></book></bib>`, "bib.xml")
	book := d.RootElement().FirstChildElement("book")
	for _, x := range []value.Value{
		value.NodeVal{Node: book.FirstChildElement("title")}, value.NodeVal{Node: book.Attr("year")},
		value.Bool(false), value.Bool(true), value.Int(0), value.Int(7), value.Float(2.5), value.Str(""), value.Str("s"),
	} {
		want := describe(Value{v: x})
		for _, wrapped := range []value.Value{value.Seq{x}, value.Seq{value.Seq{x}}} {
			if got := describe(Value{v: wrapped}); got != want {
				t.Errorf("%#v\n  as an item:     %s\n  as %#v: %s", x, want, wrapped, got)
			}
		}
	}
	// Two members are a sequence whatever they are, and none is empty.
	if k := (Value{v: value.Seq{value.Int(1), value.Int(2)}}).Kind(); k != KindSequence {
		t.Errorf("two items: Kind = %v, want sequence", k)
	}
	if k := (Value{v: value.Seq{value.Seq{}}}).Kind(); k != KindEmpty {
		t.Errorf("a sequence holding the empty sequence: Kind = %v, want empty", k)
	}

	eng := NewEngine()
	eng.LoadDocument(d)
	q, err := eng.Compile(`let $d := doc("bib.xml") for $b in $d//book
		return <r>{ $b/title }{ $b/@year }{ distinct-values($b/title) }{ $b/author }{ $b/missing }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`kind=node name="title" bool=false,false int=0,false float=0,false string="A" xml="<title>A</title>" items=[node:title:A]`,
		`kind=node name="year" bool=false,false int=0,false float=0,false string="1994" xml="1994" items=[node:year:1994]`,
		`kind=string name="" bool=false,false int=0,false float=0,false string="A" xml="A" items=[string::A]`,
		`kind=sequence name="" bool=false,false int=0,false float=0,false string="X Y" xml="<author>X</author><author>Y</author>" items=[node:author:X node:author:Y]`,
		`kind=empty name="" bool=false,false int=0,false float=0,false string="" xml="" items=[]`,
	}
	for _, engine := range []struct {
		name string
		opts []RunOption
	}{{"row engine", nil}, {"reference", []RunOption{WithReferenceEngine()}}} {
		for _, p := range q.Plans() {
			opts := append([]RunOption{WithPlan(p.Name)}, engine.opts...)
			serialized, _, err := execute(q, p.Name, engine.opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := q.Run(context.Background(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			var typed strings.Builder
			for item := range res.Seq() {
				typed.WriteString(item.XML())
				if item.IsValue() {
					got = append(got, describe(item.Value()))
				}
			}
			if err := res.Close(); err != nil {
				t.Fatal(err)
			}
			if typed.String() != serialized {
				t.Errorf("%s/%s: typed consumption %q, WriteXML %q", engine.name, p.Name, typed.String(), serialized)
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s/%s: typed views\n%s\nwant\n%s", engine.name, p.Name, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
}
