package nalquery

import (
	"slices"
	"strings"
	"testing"
)

// edgeAtomsBib holds the atoms the query generators never draw: NaN, -0,
// padded and exponent numbers, Infinity, the text "true", the empty text
// and a non-number, as authors, prices and the items of two lists.
const edgeAtomsBib = `<bib>
<book><title>A</title><author>NaN</author><price>7</price></book>
<book><title>B</title><author>5</author><price>NaN</price></book>
<book><title>C</title><author>x</author><price>5</price></book>
<atoms><a>NaN</a><a>-0</a><a> 7 </a><a>1e1</a><a>Infinity</a><a>true</a><a></a><a>x</a></atoms>
<prices><p>5</p><p>NaN</p><p>3</p><p>9</p><p>1</p><p>NaN</p><p>4</p><p>8</p><p>2</p><p>7</p><p>NaN</p><p>6</p><p>0</p><p>x</p><p>10</p></prices>
</bib>`

// TestDifferentialEdgeAtoms runs statements over edgeAtomsBib through every
// plan, both evaluators and both consumption modes, and requires each to
// give its hand-derived answer under the atom rule (internal/value,
// compare.go): NaN equals NaN, has no order with another number and sorts
// first; a Bool is the number 1 or 0; a number against text compares as
// text. Where the nested comparison and the hash keys of the unnested plans
// used different rules, the plans disagreed (NaN = 5 held, NaN = NaN did
// not, true = "true" held and its keys differed).
func TestDifferentialEdgeAtoms(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadXMLString("bib.xml", edgeAtomsBib); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, query, want string
		alt               string // a plan besides nested the statement must have
	}{
		{"Q1 grouping", QueryQ1Grouping,
			`<author><name>NaN</name><title>A</title></author>` +
				`<author><name>5</name><title>B</title></author>` +
				`<author><name>x</name><title>C</title></author>`, "grouping"},
		{"= 5", `for $b in doc("bib.xml")//book where $b/price = 5 return $b/title`,
			`<title>C</title>`, "indexed nested"},
		{"!= 5", `for $b in doc("bib.xml")//book where $b/price != 5 return $b/title`,
			`<title>A</title><title>B</title>`, ""},
		{"order by", `for $p in doc("bib.xml")//p order by $p return $p`,
			pList("NaN NaN NaN 0 1 2 3 4 5 6 7 8 9 10 x"), ""},
		{"order by descending", `for $p in doc("bib.xml")//p order by $p descending return $p`,
			pList("x 10 9 8 7 6 5 4 3 2 1 0 NaN NaN NaN"), ""},
		{"some satisfies =", `for $p in doc("bib.xml")//book/price
			where some $a in doc("bib.xml")//a satisfies $a = $p
			return $p`,
			`<price>7</price><price>NaN</price>`, "semijoin"},
		{"every satisfies !=", `for $p in doc("bib.xml")//book/price
			where every $a in doc("bib.xml")//a satisfies $a != $p
			return $p`,
			`<price>5</price>`, "anti-semijoin"},
		{"θ-Γ count <", `for $p in doc("bib.xml")//book/price
			return <n>{ count(for $a in doc("bib.xml")//a where $a < $p return $a) }</n>`,
			`<n>2</n><n>1</n><n>2</n>`, "binary grouping"},
		{"outer join =", `for $p in doc("bib.xml")//book/price
			return <n>{ $p }{ let $d2 := doc("bib.xml") for $a in $d2//a where $p = $a return $a }</n>`,
			`<n><price>7</price><a> 7 </a></n><n><price>NaN</price><a>NaN</a></n><n><price>5</price></n>`, "outer join"},
		{"aggregates", `let $d := doc("bib.xml")
			return <agg><min>{ min($d//book/price) }</min><max>{ max($d//book/price) }</max><sum>{ sum($d//book/price) }</sum><tmin>{ min($d//a) }</tmin><tmax>{ max($d//a) }</tmax></agg>`,
			`<agg><min>NaN</min><max>7</max><sum>NaN</sum><tmin></tmin><tmax>x</tmax></agg>`, ""},
		{"distinct-values", `for $v in distinct-values(doc("bib.xml")//a) return <v>{ $v }</v>`,
			`<v>NaN</v><v>-0</v><v> 7 </v><v>1e1</v><v>Infinity</v><v>true</v><v></v><v>x</v>`, ""},
		{"distinct-values NaN", `for $v in distinct-values(doc("bib.xml")//p) return <v>{ $v }</v>`,
			`<v>5</v><v>NaN</v><v>3</v><v>9</v><v>1</v><v>4</v><v>8</v><v>2</v><v>7</v><v>6</v><v>0</v><v>x</v><v>10</v>`, ""},
		{"= true()", `for $a in doc("bib.xml")//a where $a = true() return <t>{ $a }</t>`, ``, "indexed nested"},
		{"= 10", `for $a in doc("bib.xml")//a where $a = 10 return <t>{ $a }</t>`, `<t><a>1e1</a></t>`, "indexed nested"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := assertAllPlansAgree(t, eng, c.query); got != c.want {
				t.Errorf("every plan answers\n%s\nwant\n%s", got, c.want)
			}
			if c.alt == "" {
				return
			}
			q, err := eng.Compile(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(planNames(q), c.alt) {
				t.Errorf("no plan %q among %v: the statement no longer reaches the code it pins", c.alt, planNames(q))
			}
		})
	}
}

// pList is the serialization of <p> elements holding the given texts.
func pList(texts string) string {
	var sb strings.Builder
	for _, s := range strings.Fields(texts) {
		sb.WriteString("<p>" + s + "</p>")
	}
	return sb.String()
}
