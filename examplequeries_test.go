package nalquery

import "testing"

// A five-product catalog for the frontend's extensions: order by, at $i,
// if/then/else and the string builtins. Two products tie on price.
const exampleCatalog = `<catalog>
  <product><name>widget mk I</name><price>19.50</price><stock>3</stock></product>
  <product><name>widget mk II</name><price>42.00</price><stock>0</stock></product>
  <product><name>gizmo</name><price>7.25</price><stock>120</stock></product>
  <product><name>doohickey deluxe</name><price>99.99</price><stock>1</stock></product>
  <product><name>contraption</name><price>42.00</price><stock>17</stock></product>
</catalog>`

// A tick stream in time order, one round of four symbols a line: the
// ordered-context workload the paper's introduction names. AAA and CCC never
// trade at or below 90; AAA, BBB and CCC trade above 110 at least once; DDD
// trends down.
const exampleQuotes = `<quotes>
<quote t="0"><symbol>AAA</symbol><price>112</price></quote><quote t="1"><symbol>BBB</symbol><price>93</price></quote><quote t="2"><symbol>CCC</symbol><price>115</price></quote><quote t="3"><symbol>DDD</symbol><price>95</price></quote>
<quote t="4"><symbol>AAA</symbol><price>109</price></quote><quote t="5"><symbol>BBB</symbol><price>104</price></quote><quote t="6"><symbol>CCC</symbol><price>114</price></quote><quote t="7"><symbol>DDD</symbol><price>94</price></quote>
<quote t="8"><symbol>AAA</symbol><price>114</price></quote><quote t="9"><symbol>BBB</symbol><price>109</price></quote><quote t="10"><symbol>CCC</symbol><price>102</price></quote><quote t="11"><symbol>DDD</symbol><price>93</price></quote>
<quote t="12"><symbol>AAA</symbol><price>93</price></quote><quote t="13"><symbol>BBB</symbol><price>89</price></quote><quote t="14"><symbol>CCC</symbol><price>101</price></quote><quote t="15"><symbol>DDD</symbol><price>92</price></quote>
<quote t="16"><symbol>AAA</symbol><price>96</price></quote><quote t="17"><symbol>BBB</symbol><price>89</price></quote><quote t="18"><symbol>CCC</symbol><price>107</price></quote><quote t="19"><symbol>DDD</symbol><price>91</price></quote>
<quote t="20"><symbol>AAA</symbol><price>107</price></quote><quote t="21"><symbol>BBB</symbol><price>115</price></quote><quote t="22"><symbol>CCC</symbol><price>112</price></quote><quote t="23"><symbol>DDD</symbol><price>90</price></quote>
</quotes>`

// TestDifferentialExampleQueries pins application-shaped queries — analytics
// over the auction documents, a report over the catalog and screens over the
// tick stream — to the differential oracle. Every row must produce output,
// so none passes on an empty result; where want is set, the output is
// derived by hand from the documents. At 30 bids, two of the six items have
// none, so the idle-items row has an answer.
func TestDifferentialExampleQueries(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(30, 2)
	if err := eng.LoadXMLString("catalog.xml", exampleCatalog); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadXMLString("quotes.xml", exampleQuotes); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, query, want string }{
		// Highest bid per item: grouping and max (Eqv. 3).
		{"auction/highest-bid", `
let $d1 := document("bids.xml")
for $i1 in distinct-values($d1//itemno)
let $m1 := max(let $d2 := document("bids.xml")
               for $b2 in $d2//bidtuple
               let $i2 := $b2/itemno
               let $a2 := $b2/bid
               where $i1 = $i2
               return decimal($a2))
return <high item="{ $i1 }">{ $m1 }</high>`, ""},
		// Users with a bid: some over a second document (semijoin, Eqv. 6).
		{"auction/active-bidders", `
let $d1 := document("users.xml")
for $u1 in $d1//usertuple/userid
where some $u2 in (let $d2 := document("bids.xml")
                   for $u3 in $d2//bidtuple/userid
                   return $u3)
      satisfies $u1 = $u2
return <active>{ $u1 }</active>`, ""},
		// Items without bids: every ... satisfies false() (Eqv. 7 or 9).
		{"auction/idle-items", `
let $d1 := document("items.xml")
for $i1 in distinct-values($d1//itemtuple/itemno)
where every $b2 in (let $d2 := document("bids.xml")
                    for $i3 in $d2//bidtuple/itemno
                    where $i3 = $i1
                    return $i3)
      satisfies false()
return <idle>{ $i1 }</idle>`, ""},
		// Stable descending sort; $i is the position before the sort.
		{"reporting/price-list", `
let $d := doc("catalog.xml")
for $p at $i in $d//product
order by decimal($p/price) descending
return <line pos="{ $i }">{ upper-case(string($p/name)) }: { string($p/price) }</line>`, ""},
		{"reporting/availability", `
let $d := doc("catalog.xml")
for $p in $d//product
return <item>
  <n>{ string($p/name) }</n>
  <status>{ if (decimal($p/stock) = 0) then "SOLD OUT"
            else if (decimal($p/stock) < 5) then "LOW" else "OK" }</status>
</item>`, ""},
		{"reporting/cheapest", `
let $d := doc("catalog.xml")
for $n in distinct-values($d//product/name)
let $m := min(
  let $d2 := doc("catalog.xml")
  for $p2 in $d2//product
  let $n2 := $p2/name
  let $c2 := decimal($p2/price)
  where $n = $n2
  return $c2)
where $m < 10
return <cheap>{ concat($n, " at ", $m) }</cheap>`, "<cheap>gizmo at 7.25</cheap>"},
		{"reporting/short-names", `
let $d := doc("catalog.xml")
for $p in $d//product
return <s>{ if (contains(string($p/name), " "))
            then substring-before(string($p/name), " ")
            else string($p/name) }</s>`, ""},
		// Q1's grouping pattern: ticks in arrival order inside each symbol.
		{"timeseries/history", `
let $d1 := doc("quotes.xml")
for $s1 in distinct-values($d1//symbol)
return
  <series>
    <sym>{ $s1 }</sym>
    { let $d2 := doc("quotes.xml")
      for $q2 in $d2//quote
      let $s2 := $q2/symbol
      let $p2 := $q2/price
      where $s1 = $s2
      return $p2 }
  </series>`, ""},
		// Q2's pattern: an aggregate in the head.
		{"timeseries/low-water", `
let $d1 := doc("quotes.xml")
for $s1 in distinct-values($d1//symbol)
let $m1 := min(
  let $d2 := doc("quotes.xml")
  for $q2 in $d2//quote
  let $s2 := $q2/symbol
  let $c2 := decimal($q2/price)
  where $s1 = $s2
  return $c2)
return <low><sym>{ $s1 }</sym><min>{ $m1 }</min></low>`, ""},
		// Q5's pattern: universal quantification.
		{"timeseries/steady", `
let $d1 := doc("quotes.xml")
for $s1 in distinct-values($d1//symbol)
where every $p2 in (
    let $d3 := doc("quotes.xml")
    for $q3 in $d3//quote
    let $s3 := $q3/symbol
    let $p3 := $q3/price
    where $s1 = $s3
    return $p3)
  satisfies decimal($p2) > 90
return <steady>{ $s1 }</steady>`, "<steady>AAA</steady><steady>CCC</steady>"},
		// Q3's pattern: existential quantification.
		{"timeseries/spiked", `
let $d1 := doc("quotes.xml")
for $s1 in distinct-values($d1//symbol)
where some $p2 in (
    let $d3 := doc("quotes.xml")
    for $q3 in $d3//quote
    let $s3 := $q3/symbol
    let $p3 := $q3/price
    where $s1 = $s3
    return $p3)
  satisfies decimal($p2) > 110
return <spiker>{ $s1 }</spiker>`, "<spiker>AAA</spiker><spiker>BBB</spiker><spiker>CCC</spiker>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := assertAllPlansAgree(t, eng, tc.query)
			if out == "" || tc.want != "" && out != tc.want {
				t.Errorf("output %q, want %q (any if empty)", out, tc.want)
			}
		})
	}
}
