package experiments

import (
	"fmt"
	"io"
	"time"

	nalquery "nalquery"
	"nalquery/internal/algebra"
	"nalquery/internal/cli"
	"nalquery/internal/core"
	"nalquery/internal/dom"
	"nalquery/internal/normalize"
	"nalquery/internal/schema"
	"nalquery/internal/translate"
	"nalquery/internal/value"
	"nalquery/internal/xmlgen"
	"nalquery/internal/xpath"
	"nalquery/internal/xquery"
)

// The ablation experiments isolate the design choices DESIGN.md calls out:
// the order-preserving hash implementation of the grouping operators vs.
// their definitional scan, the group-detecting Ξ vs. Γ + simple Ξ, and the
// Sec. 5.5 residual pushdown into the anti-join's inner operand.

// AblationResult is one ablation measurement.
type AblationResult struct {
	Name    string
	Variant string
	Size    int
	Elapsed time.Duration
}

// AblationHashVsScanGrouping compares the probe-order-preserving hash
// implementation of the binary grouping operator against the definitional
// scan (Sec. 2's recursive definition evaluates σ over e2 per e1 tuple).
func AblationHashVsScanGrouping(sizes []int) []AblationResult {
	var out []AblationResult
	for _, size := range sizes {
		cfg := xmlgen.DefaultConfig(size)
		bids := xmlgen.Bids(cfg)
		docs := map[string]*dom.Document{"bids.xml": bids}

		base := func() algebra.Op {
			return algebra.UnnestMap{
				In:   algebra.Map{In: algebra.Singleton{}, Attr: "d", E: algebra.Doc{URI: "bids.xml"}},
				Attr: "i2",
				E:    algebra.PathOf{Input: algebra.Var{Name: "d"}, Path: xpath.MustParse("//bidtuple/itemno")},
			}
		}
		e1 := algebra.UnnestMap{
			In:   algebra.Map{In: algebra.Singleton{}, Attr: "d1", E: algebra.Doc{URI: "bids.xml"}},
			Attr: "i1",
			E: algebra.Call{Fn: "distinct-values",
				Args: []algebra.Expr{algebra.PathOf{Input: algebra.Var{Name: "d1"}, Path: xpath.MustParse("//itemno")}}},
		}
		for _, forceScan := range []bool{false, true} {
			plan := algebra.GroupBinary{
				L: e1, R: base(), G: "c",
				LAttrs: []string{"i1"}, RAttrs: []string{"i2"},
				Theta: value.CmpEq, F: algebra.SFCount{}, ForceScan: forceScan,
			}
			plan.Eval(algebra.NewCtx(docs), nil) // warm-up
			t0 := time.Now()
			plan.Eval(algebra.NewCtx(docs), nil)
			variant := "hash"
			if forceScan {
				variant = "scan"
			}
			out = append(out, AblationResult{Name: "binary-grouping", Variant: variant,
				Size: size, Elapsed: time.Since(t0)})
		}
	}
	return out
}

// AblationGroupXi compares the Q1 "grouping" plan (Γ materializing the
// sequence-valued attribute, then simple Ξ) against the fused
// group-detecting Ξ plan — the paper's "saves a grouping operation" claim —
// and against the paper's literal implementation of the latter: a stable
// sort on the group attributes followed by the boundary-detecting
// streaming Ξ ("this condition can be met by a stable(!) sort", Sec. 2).
func AblationGroupXi(sizes []int) ([]AblationResult, error) {
	var out []AblationResult
	cat := schema.UseCases()
	ast, err := xquery.ParseQuery(nalquery.QueryQ1Grouping)
	if err != nil {
		return nil, err
	}
	res, err := translate.Translate(normalize.NormalizeWithCatalog(ast, cat), cat)
	if err != nil {
		return nil, err
	}
	rw := core.NewRewriter(res, cat)
	xiPlan, _ := rw.Rewrite(res.Plan, core.StrategyGroupXi)
	sortStream := sortStreamVariant(xiPlan)
	for _, size := range sizes {
		eng := nalquery.NewEngine()
		eng.LoadUseCaseDocuments(size, 5)
		q, err := eng.Compile(nalquery.QueryQ1Grouping)
		if err != nil {
			return nil, err
		}
		for _, plan := range []string{"grouping", "group Ξ"} {
			t0 := time.Now()
			if _, _, err := cli.RunPlan(q, plan); err != nil {
				return nil, err
			}
			out = append(out, AblationResult{Name: "group-xi", Variant: plan,
				Size: size, Elapsed: time.Since(t0)})
		}
		if sortStream != nil {
			cfg := xmlgen.DefaultConfig(size)
			cfg.AuthorsPerBook = 5
			docs := map[string]*dom.Document{"bib.xml": xmlgen.Bib(cfg)}
			t0 := time.Now()
			sortStream.Eval(algebra.NewCtx(docs), nil)
			out = append(out, AblationResult{Name: "group-xi", Variant: "sort+stream Ξ",
				Size: size, Elapsed: time.Since(t0)})
		}
	}
	return out, nil
}

// sortStreamVariant rewrites a group-Ξ plan (XiGroup at the root) into the
// paper's stable-sort + boundary-detecting streaming Ξ pipeline. It returns
// nil when the plan has a different shape.
func sortStreamVariant(plan algebra.Op) algebra.Op {
	xg, ok := plan.(algebra.XiGroup)
	if !ok {
		return nil
	}
	return algebra.XiGroupStream{
		In: algebra.Sort{In: xg.In, By: xg.By},
		By: xg.By, S1: xg.S1, S2: xg.S2, S3: xg.S3,
	}
}

// AblationPushdown compares the Q5 anti-semijoin with and without pushing
// the negated satisfies predicate into the inner operand (Sec. 5.5:
// "we can push the second part of the join predicate into its second
// operand").
func AblationPushdown(sizes []int) ([]AblationResult, error) {
	var out []AblationResult
	cat := schema.UseCases()
	ast, err := xquery.ParseQuery(nalquery.QueryQ5Universal)
	if err != nil {
		return nil, err
	}
	res, err := translate.Translate(normalize.NormalizeWithCatalog(ast, cat), cat)
	if err != nil {
		return nil, err
	}
	for _, size := range sizes {
		cfg := xmlgen.DefaultConfig(size)
		docs := map[string]*dom.Document{"bib.xml": xmlgen.Bib(cfg)}
		for _, noPush := range []bool{false, true} {
			rw := core.NewRewriter(res, cat)
			rw.SetNoPushdown(noPush)
			plan, _ := rw.Rewrite(res.Plan, core.StrategyGeneral)
			t0 := time.Now()
			plan.Eval(algebra.NewCtx(docs), nil)
			variant := "pushdown"
			if noPush {
				variant = "no-pushdown"
			}
			out = append(out, AblationResult{Name: "antijoin-pushdown", Variant: variant,
				Size: size, Elapsed: time.Since(t0)})
		}
	}
	return out, nil
}

// AblationGraceJoin compares three physical strategies for the
// order-preserving join (Sec. 2's implementation discussion): the
// probe-order hash join this library defaults to, the paper's actual
// implementation (Grace hash join + sort restoring order), and the
// order-preserving hash join of Claussen et al. [6] (partitioned join +
// P-way order-restoring merge — "sorting (almost) for free"). Workload:
// join bids with items on itemno.
func AblationGraceJoin(sizes []int) []AblationResult {
	var out []AblationResult
	for _, size := range sizes {
		docs := JoinFamilyDocs(size)
		for _, v := range JoinFamilyPlans() {
			v.Op.Eval(algebra.NewCtx(docs), nil) // warm-up
			t0 := time.Now()
			v.Op.Eval(algebra.NewCtx(docs), nil)
			out = append(out, AblationResult{Name: "order-preserving-join", Variant: v.Name,
				Size: size, Elapsed: time.Since(t0)})
		}
	}
	return out
}

// AblationUnordered compares the order-preserving plans against the
// unordered operator family on the Q1 grouping query wrapped in XQuery's
// unordered() function (Sec. 1: when order is irrelevant, the
// object-oriented unnesting setting applies and the physical operators
// need not preserve probe order).
func AblationUnordered(sizes []int) ([]AblationResult, error) {
	var out []AblationResult
	unorderedQ1 := "unordered(" + nalquery.QueryQ1Grouping + ")"
	for _, size := range sizes {
		eng := nalquery.NewEngine()
		eng.LoadUseCaseDocuments(size, 5)
		q, err := eng.Compile(unorderedQ1)
		if err != nil {
			return nil, err
		}
		for _, p := range q.Plans() {
			if p.Name == "nested" {
				continue
			}
			if _, _, err := cli.RunPlan(q, p.Name); err != nil { // warm-up
				return nil, err
			}
			t0 := time.Now()
			if _, _, err := cli.RunPlan(q, p.Name); err != nil {
				return nil, err
			}
			out = append(out, AblationResult{Name: "unordered-family", Variant: p.Name,
				Size: size, Elapsed: time.Since(t0)})
		}
	}
	return out, nil
}

// AblationIterVsMaterialized compares the pull-based iterator engine
// against materialized evaluation on the Q1 grouping plan.
func AblationIterVsMaterialized(sizes []int) ([]AblationResult, error) {
	var out []AblationResult
	cat := schema.UseCases()
	ast, err := xquery.ParseQuery(nalquery.QueryQ1Grouping)
	if err != nil {
		return nil, err
	}
	res, err := translate.Translate(normalize.NormalizeWithCatalog(ast, cat), cat)
	if err != nil {
		return nil, err
	}
	rw := core.NewRewriter(res, cat)
	plan, _ := rw.Rewrite(res.Plan, core.StrategyGrouping)
	for _, size := range sizes {
		cfg := xmlgen.DefaultConfig(size)
		cfg.AuthorsPerBook = 5
		docs := map[string]*dom.Document{"bib.xml": xmlgen.Bib(cfg)}
		t0 := time.Now()
		plan.Eval(algebra.NewCtx(docs), nil)
		out = append(out, AblationResult{Name: "engine", Variant: "materialized",
			Size: size, Elapsed: time.Since(t0)})
		t0 = time.Now()
		algebra.DrainIter(plan, algebra.NewCtx(docs), nil)
		out = append(out, AblationResult{Name: "engine", Variant: "iterator",
			Size: size, Elapsed: time.Since(t0)})
	}
	return out, nil
}

// PrintAblations renders ablation results.
func PrintAblations(w io.Writer, rs []AblationResult) {
	fmt.Fprintln(w, "ablations")
	fmt.Fprintf(w, "%-24s%-18s%8s%14s\n", "ablation", "variant", "size", "time")
	for _, r := range rs {
		fmt.Fprintf(w, "%-24s%-18s%8d%14s\n", r.Name, r.Variant, r.Size, fmtDur(r.Elapsed))
	}
	fmt.Fprintln(w)
}
