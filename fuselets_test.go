package nalquery

import "testing"

const fuseLetsDoc = `<prices>
  <book><title>A</title><price>31</price></book>
  <book><title>A</title><price>29.8</price></book>
  <book><title>B</title><price>40</price></book>
</prices>`

// TestAggLetReadTwiceIsNotFused: the normalizer fuses a let-bound FLWR into
// the one aggregate that reads it (min($p) becomes min(FLWR)). Here $p is
// also read by count($p), so fusing would leave count over an unbound
// variable: every plan must print both the minimum and the count.
func TestAggLetReadTwiceIsNotFused(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadXMLString("prices.xml", fuseLetsDoc); err != nil {
		t.Fatal(err)
	}
	q, err := eng.Compile(`
let $d1 := doc("prices.xml")
for $t1 in distinct-values($d1//book/title)
let $p1 := (let $d2 := doc("prices.xml")
            for $b2 in $d2//book
            where $b2/title = $t1
            return $b2/price)
let $m1 := min($p1)
return <r><min>{ $m1 }</min><n>{ count($p1) }</n></r>`)
	if err != nil {
		t.Fatal(err)
	}
	want := `<r><min>29.8</min><n>2</n></r><r><min>40</min><n>1</n></r>`
	for _, p := range q.Plans() {
		out, _, err := execute(q, p.Name)
		if err != nil {
			t.Fatalf("plan %q: %v", p.Name, err)
		}
		if squash(out) != want {
			t.Errorf("plan %q:\ngot  %q\nwant %q", p.Name, squash(out), want)
		}
	}
}
