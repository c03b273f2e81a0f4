package index

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xmlgen"
)

// checkProbes asserts that probe answers, for every key, exactly the ranks
// whose nodes a filter with the general comparison = keeps, in document
// order.
func checkProbes(t *testing.T, d *dom.Document, ranks []int32, keys []value.Value, probe func(value.Value) []int32) {
	t.Helper()
	for _, key := range keys {
		var want []int32
		for _, r := range ranks {
			if value.GeneralCompare(value.NodeVal{Node: d.Node(int(r))}, key, value.CmpEq) {
				want = append(want, r)
			}
		}
		if got := probe(key); !slices.Equal(got, want) {
			t.Fatalf("probe %#v: ranks %v, the filter keeps %v", key, got, want)
		}
	}
}

// probeKeys is every leaf's text at ranks as a string and read in place,
// plus the extra keys.
func probeKeys(d *dom.Document, ranks []int32, extra ...value.Value) []value.Value {
	keys := extra
	for _, r := range ranks {
		n := d.Node(int(r))
		keys = append(keys, value.Str(n.StringValue()), value.NodeText{Node: n})
	}
	return keys
}

// TestProbeWithDegenerateHash: with every key hashing alike, each probe
// walks one collision run over every group, and it still answers exactly
// what a filter scan keeps — a group is confirmed by key, never by hash.
// A hint of one key makes the build grow its slot table as it goes.
func TestProbeWithDegenerateHash(t *testing.T) {
	d := xmlgen.Bib(xmlgen.DefaultConfig(100))
	same := func(value.HashKey) uint64 { return 42 }
	layers := 0
	x := Build(d)
	for i := range x.Paths {
		px := &x.Paths[i]
		if !px.HasValues {
			continue
		}
		layers++
		v := buildValues(d, px.Ranks, 1, same)
		keys := probeKeys(d, px.Ranks, value.Str("no such value"), value.Int(1999), value.Float(0))
		checkProbes(t, d, px.Ranks, keys, func(key value.Value) []int32 {
			return v.probe(d, value.KeyOf(key), same)
		})
	}
	if layers == 0 {
		t.Fatal("bib.xml has no value layer to probe")
	}
}

// FuzzIndexProbe builds a document whose leaves — an element's text and
// its attribute's value — are fuzzed texts, and holds both value layers'
// ProbeEq to the filter scan it replaces, for the leaves' own texts and a
// fuzzed key, each as a string, read in place, and as a number when it
// parses as one.
func FuzzIndexProbe(f *testing.F) {
	for _, seed := range [][4]string{
		{"1", "1.0", " 1 ", "1"}, {"-0", "0", "NaN", "-0"}, {"NaN", "nan", " NaN ", "NaN"},
		{"", " ", "a b", " "}, {"1e400", "Infinity", "-INF", "INF"}, {"007", "7", "x", "7.000"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, a, b, c, key string) {
		texts := []string{a, b, c, a}
		bld := dom.NewBuilder("fuzz.xml").Begin("r")
		for _, s := range texts {
			bld.Begin("e").Attrib("v", s).Text(s).End()
		}
		d := bld.End().Done()
		x := Build(d)
		extra := []value.Value{value.Str(key)}
		for _, s := range append(texts, key) {
			if n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64); err == nil {
				extra = append(extra, value.Int(n))
			} else if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
				extra = append(extra, value.Float(f))
			}
		}
		for i := range x.Paths {
			px, path := &x.Paths[i], x.Paths[i].Path
			if !px.HasValues {
				continue
			}
			checkProbes(t, d, px.Ranks, probeKeys(d, px.Ranks, extra...), func(key value.Value) []int32 {
				got, ok := px.ProbeEq(key)
				if !ok {
					t.Fatalf("%s: a value layer refused a probe", path)
				}
				return got
			})
		}
	})
}
