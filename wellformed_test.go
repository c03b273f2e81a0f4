package nalquery

import (
	"encoding/xml"
	"io"
	"strings"
	"testing"
)

// markupBib holds the characters markup gives a meaning to, & < > and ",
// in element text and in attribute values. The generated corpora contain
// none of them, so the oracle sweep never writes one.
const markupBib = `<bib>
<book t="a&amp;b&lt;c&quot;d"><title>Tom &amp; Jerry &lt;3 &gt;</title><author>"Q" &amp; A</author></book>
<book t="x&gt;y"><title>Plain</title><author>"Q" &amp; A</author></book>
</bib>`

// TestOutputIsWellFormed runs statements that write text read from
// markupBib — a node, an attribute, string(), distinct-values, data() and
// concat — through every plan, both evaluators and both consumption modes,
// and requires the hand-derived output, which must parse as XML. The same
// texts are written as nodes and as strings, and must print alike: an
// attribute node was written unescaped (`<o>a&b<c"d</o>`), and concat
// escaped its arguments into the string it returned, so Ξ escaped them a
// second time and string-length and contains read the escapes. An
// enclosed expression in an attribute value was written as element content:
// a " ended the attribute and an element became markup inside it.
func TestOutputIsWellFormed(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadXMLString("bib.xml", markupBib); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, query, want string }{
		{"element node", `for $b in doc("bib.xml")//book return $b/title`,
			`<title>Tom &amp; Jerry &lt;3 &gt;</title><title>Plain</title>`},
		{"attribute node", `for $b in doc("bib.xml")//book return <o>{ $b/@t }</o>`,
			`<o>a&amp;b&lt;c"d</o><o>x&gt;y</o>`},
		{"string()", `for $b in doc("bib.xml")//book return <s>{ string($b/@t) }{ string($b/title) }</s>`,
			`<s>a&amp;b&lt;c"dTom &amp; Jerry &lt;3 &gt;</s><s>x&gt;yPlain</s>`},
		{"distinct-values", `for $a in distinct-values(doc("bib.xml")//author) return <a>{ $a }</a>`,
			`<a>"Q" &amp; A</a>`},
		{"data()", `for $b in doc("bib.xml")//book return <d>{ data($b/@t) }</d>`,
			`<d>a&amp;b&lt;c"d</d><d>x&gt;y</d>`},
		{"concat", `for $b in doc("bib.xml")//book return <c>{ concat("<", $b/@t, ">") }</c>`,
			`<c>&lt;a&amp;b&lt;c"d&gt;</c><c>&lt;x&gt;y&gt;</c>`},
		{"concat of literals", `let $d := doc("bib.xml") return <o>{ concat("a<", "b") }</o>`, `<o>a&lt;b</o>`},
		{"concat of an element", `for $b in doc("bib.xml")//book return <c>{ concat($b/title, "!") }</c>`,
			`<c>Tom &amp; Jerry &lt;3 &gt;!</c><c>Plain!</c>`},
		{"string-length of concat", `let $d := doc("bib.xml") return <n>{ string-length(concat("<", "a")) }</n>`, `<n>2</n>`},
		{"contains over concat", `for $b in doc("bib.xml")//book where contains(concat("<", $b/@t), "<x") return <o>{ $b/title }</o>`,
			`<o><title>Plain</title></o>`},
		// An attribute value is text: its atoms joined by one space, escaped
		// for an attribute, never markup.
		{"attribute node in an attribute", `for $b in doc("bib.xml")//book return <o a="{ $b/@t }"/>`,
			`<o a="a&amp;b&lt;c&quot;d"></o><o a="x&gt;y"></o>`},
		{"elements in an attribute", `for $b in doc("bib.xml")//book return <o a="{ $b/* }"/>`,
			`<o a="Tom &amp; Jerry &lt;3 &gt; &quot;Q&quot; &amp; A"></o><o a="Plain &quot;Q&quot; &amp; A"></o>`},
		{"concat in an attribute", `for $b in doc("bib.xml")//book return <o a="{ concat('a"<&', $b/title) }"/>`,
			`<o a="a&quot;&lt;&amp;Tom &amp; Jerry &lt;3 &gt;"></o><o a="a&quot;&lt;&amp;Plain"></o>`},
		{"distinct-values in an attribute", `for $a in distinct-values(doc("bib.xml")//author) return <a n="{ $a }">{ $a }</a>`,
			`<a n="&quot;Q&quot; &amp; A">"Q" &amp; A</a>`},
		// The group Ξ plan prints a group's members one by one, so it is not
		// a plan for a group printed inside an attribute.
		{"nested block in an attribute", `let $d1 := doc("bib.xml") for $a1 in distinct-values($d1//author)
			return <a n="{ $a1 }" t="{ let $d2 := doc("bib.xml") for $b2 in $d2//book[$a1 = author] return $b2/title }"/>`,
			`<a n="&quot;Q&quot; &amp; A" t="Tom &amp; Jerry &lt;3 &gt; Plain"></a>`},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := assertAllPlansAgree(t, eng, c.query)
			if got != c.want {
				t.Errorf("every plan answers\n%s\nwant\n%s", got, c.want)
			}
			d := xml.NewDecoder(strings.NewReader("<r>" + got + "</r>"))
			for {
				if _, err := d.Token(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatalf("output %q is not XML: %v", got, err)
				}
			}
		})
	}
}
