package nalquery

import (
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/value"
)

// bagKeys renders a tuple sequence as a DeepKey multiset for bag-equality
// diagnostics.
func bagKeys(ts value.TupleSeq) map[string]int {
	out := make(map[string]int, len(ts))
	for _, t := range ts {
		out[value.DeepKey(value.TupleSeq{t})]++
	}
	return out
}

// TestSlotEngineMatchesMapEngine is the schema-resolver property test: for
// every plan of every paper query, slot-based execution (RunIter over the
// row engine) and map-based execution (the definitional evaluator) produce
// sequence-equal results — and in particular bag-equal ones (value.DeepKey
// multisets) — with identical Ξ output.
func TestSlotEngineMatchesMapEngine(t *testing.T) {
	e := tinyEngine(t)
	e.LoadDBLPDocument(40)
	for name, text := range PaperQueries {
		cq, err := e.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range cq.Plans() {
			ctxM := algebra.NewCtx(e.snapshot().docs)
			want := p.op.Eval(ctxM, nil)
			ctxR := algebra.NewCtx(e.snapshot().docs)
			got := algebra.RunIter(p.op, ctxR, nil)

			if !value.TupleSeqEqual(want, got) {
				t.Errorf("%s/%s: slot result differs from map result\nmap:  %.200s\nslot: %.200s",
					name, p.Name, want, got)
			}
			if !value.TupleSeqEqualBag(want, got) {
				t.Errorf("%s/%s: slot result not bag-equal to map result\nmap bag:  %v\nslot bag: %v",
					name, p.Name, bagKeys(want), bagKeys(got))
			}
			if ctxM.OutString() != ctxR.OutString() {
				t.Errorf("%s/%s: Ξ output differs\nmap:  %.200q\nslot: %.200q",
					name, p.Name, ctxM.OutString(), ctxR.OutString())
			}
		}
	}
}

// TestPaperPlansResolveNatively guards the perf story: every plan of every
// paper query must pass the schema-resolution pass — a plan that does not is
// refused at run time, there is no evaluator to degrade to.
func TestPaperPlansResolveNatively(t *testing.T) {
	e := tinyEngine(t)
	e.LoadDBLPDocument(40)
	for id, text := range PaperQueries {
		q, err := e.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, p := range q.Plans() {
			if n := p.resolved(); !n.OK {
				t.Errorf("%s/%s: schema does not resolve (%s)", id, p.Name, p.op.String())
			}
		}
	}
}

// TestPaperPlansMapFree pins the RowSeq data model: no plan of any paper
// query — including the nested plans, whose sub-plans run on the row
// engine too — carries a map-backed tuple sequence
// on the slot engine's data path. Group payloads, e[a] bindings and
// nested-block results all travel as slot rows, at any nesting depth.
func TestPaperPlansMapFree(t *testing.T) {
	e := tinyEngine(t)
	e.LoadDBLPDocument(40)
	var check func(t *testing.T, name string, v value.Value)
	check = func(t *testing.T, name string, v value.Value) {
		switch w := v.(type) {
		case value.TupleSeq:
			t.Errorf("%s: a map-backed tuple sequence on the slot engine's data path: %.100s", name, w)
		case value.RowSeq:
			for i := 0; i < w.Len(); i++ {
				for _, m := range w.At(i).Vals {
					check(t, name, m)
				}
			}
		}
	}
	for name, text := range PaperQueries {
		cq, err := e.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range cq.Plans() {
			for _, tp := range algebra.RunIter(p.op, algebra.NewCtx(e.snapshot().docs), nil) {
				for _, v := range tp {
					check(t, name+"/"+p.Name, v)
				}
			}
		}
	}
}
