package nalquery

import (
	"strings"
	"testing"
)

// The count bug (Kim's unnesting corrected by outer joins — the paper's
// introduction recounts the history): items WITHOUT bids must appear with
// count 0, which a plain join-based unnesting silently drops. The paper's
// left outer join with defaults (Eqv. 2: g := f(ε) for unmatched left
// tuples) is the fix; these tests pin it end to end.

const countBugDoc = `<auction>
  <items>
    <item><no>1</no></item>
    <item><no>2</no></item>
    <item><no>3</no></item>
  </items>
  <bids>
    <bid><ino>1</ino></bid>
    <bid><ino>1</ino></bid>
    <bid><ino>3</ino></bid>
  </bids>
</auction>`

const countBugQuery = `
let $d1 := doc("auction.xml")
for $i1 in $d1//item/no
let $c1 := count(
  let $d2 := doc("auction.xml")
  for $i2 in $d2//bid/ino
  where $i1 = $i2
  return $i2)
return <item no="{ string($i1) }" bids="{ $c1 }"/>`

// TestCountBugAvoided: every plan alternative reports item 2 with zero
// bids instead of dropping it.
func TestCountBugAvoided(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadXMLString("auction.xml", countBugDoc); err != nil {
		t.Fatal(err)
	}
	q, err := eng.Compile(countBugQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Plans()) < 2 {
		t.Fatalf("no unnested alternative; plans: %v", planNames(q))
	}
	want := `<itemno="1"bids="2"></item><itemno="2"bids="0"></item><itemno="3"bids="1"></item>`
	for _, p := range q.Plans() {
		out, _, err := execute(q, p.Name)
		if err != nil {
			t.Fatalf("plan %q: %v", p.Name, err)
		}
		if squash(out) != want {
			t.Errorf("plan %q (applied %v):\ngot  %q\nwant %q", p.Name, p.Applied, squash(out), want)
		}
		if !strings.Contains(out, `bids="0"`) {
			t.Errorf("plan %q dropped the empty group — the count bug", p.Name)
		}
	}
}

// TestCountBugEqv3Rejected: the single-scan grouping plan (Eqv. 3) must
// NOT be offered here — its condition e1 = ΠD(Π(e2)) fails because item 2
// never occurs among the bids. Only the outer-join plan (Eqv. 2) may
// unnest, exactly as the side conditions demand.
func TestCountBugEqv3Rejected(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadXMLString("auction.xml", countBugDoc); err != nil {
		t.Fatal(err)
	}
	q, err := eng.Compile(countBugQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range q.Plans() {
		for _, a := range p.Applied {
			if a == "Eqv.3" || a == "Eqv.5" {
				t.Errorf("plan %q applied %s although the value sets differ (items vs bids)",
					p.Name, a)
			}
		}
	}
}

// TestSumAvoidsEmptyGroupNull: sums over empty groups follow the same
// defaulting path (sum(ε) = 0 per the engine's aggregate semantics).
func TestSumAvoidsEmptyGroupNull(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadXMLString("auction.xml", `<auction>
		<items><item><no>1</no></item><item><no>2</no></item></items>
		<bids><bid><ino>1</ino><amt>5</amt></bid><bid><ino>1</ino><amt>7</amt></bid></bids>
	</auction>`); err != nil {
		t.Fatal(err)
	}
	q, err := eng.Compile(`
let $d1 := doc("auction.xml")
for $i1 in $d1//item/no
let $s1 := sum(
  let $d2 := doc("auction.xml")
  for $b2 in $d2//bid
  let $i2 := $b2/ino
  let $a2 := decimal($b2/amt)
  where $i1 = $i2
  return $a2)
return <t no="{ string($i1) }" sum="{ $s1 }"/>`)
	if err != nil {
		t.Fatal(err)
	}
	want := `<tno="1"sum="12"></t><tno="2"sum="0"></t>`
	for _, p := range q.Plans() {
		out, _, err := execute(q, p.Name)
		if err != nil {
			t.Fatalf("plan %q: %v", p.Name, err)
		}
		if squash(out) != want {
			t.Errorf("plan %q: got %q, want %q", p.Name, squash(out), want)
		}
	}
}
