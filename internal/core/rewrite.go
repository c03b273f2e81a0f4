package core

import (
	"sort"
	"strings"

	"nalquery/internal/algebra"
	"nalquery/internal/value"
)

// Strategy selects which right-hand sides the rewriter prefers when several
// equivalences apply to the same nesting site.
type Strategy int

// Strategies, in increasing order of required side conditions.
const (
	// StrategyNested leaves the plan as translated (nested-loop evaluation).
	StrategyNested Strategy = iota
	// StrategyGeneral applies the equivalences that always hold: Eqv. 2/4
	// (left outer join with unary grouping) for χ sites and Eqv. 6/7
	// (semijoin / anti-semijoin) for quantifiers; Eqv. 1 (binary grouping)
	// for non-equality correlations.
	StrategyGeneral
	// StrategyGrouping additionally applies the condition-bearing rewrites:
	// Eqv. 3/5 (unary grouping replacing e1 entirely), Eqv. 8/9
	// (count-based selections saving a scan) and the self-join grouping of
	// Sec. 5.4.
	StrategyGrouping
	// StrategyGroupXi is StrategyGrouping plus Ξ fusion into the
	// group-detecting Ξ operator.
	StrategyGroupXi
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyNested:
		return "nested"
	case StrategyGeneral:
		return "general"
	case StrategyGrouping:
		return "grouping"
	case StrategyGroupXi:
		return "group-xi"
	default:
		return "unknown"
	}
}

// PlanAlt is one plan alternative for a query.
type PlanAlt struct {
	// Name follows the paper's table rows: "nested", "outer join",
	// "grouping", "group Ξ", "semijoin", "anti-semijoin".
	Name string
	// Strategy that produced the plan.
	Strategy Strategy
	// Op is the executable plan.
	Op algebra.Op
	// Applied lists the equivalences used, e.g. ["Eqv.4"].
	Applied []string
}

// Rewrite applies the unnesting equivalences bottom-up under the given
// strategy and returns the rewritten plan plus the list of applied rules.
func (rw *Rewriter) Rewrite(plan algebra.Op, s Strategy) (algebra.Op, []string) {
	r := &rewritePass{rw: rw, strategy: s}
	r.visit = r.op
	out := r.op(plan)
	sort.Strings(r.applied)
	return out, r.applied
}

type rewritePass struct {
	rw       *Rewriter
	strategy Strategy
	applied  []string
	visit    func(algebra.Op) algebra.Op // op, bound once per pass
}

func (r *rewritePass) note(rule string) {
	for _, a := range r.applied {
		if a == rule {
			return
		}
	}
	r.applied = append(r.applied, rule)
}

// op rewrites one operator bottom-up: the inputs first, then the operator
// itself where it is a nesting site.
func (r *rewritePass) op(o algebra.Op) algebra.Op {
	if r.strategy == StrategyNested {
		return o
	}
	switch w := o.MapChildren(r.visit).(type) {
	case algebra.Map:
		return r.mapSite(w)
	case algebra.Select:
		return r.selectSite(w)
	case algebra.XiSimple:
		return r.xiSite(w)
	default:
		return w
	}
}

// mapSite unnests a χ g:f(σ...(e2)) site.
func (r *rewritePass) mapSite(m algebra.Map) algebra.Op {
	site, ok := matchMapNested(m)
	if !ok {
		return m
	}
	// Rewrite inside the nested plan first (multi-level nesting).
	inner := r.op(site.e2)
	m.E = algebra.NestedApply{
		F:    m.E.(algebra.NestedApply).F,
		Plan: algebra.Select{In: inner, Pred: site.pred},
	}

	if r.strategy >= StrategyGrouping {
		if out, ok := r.rw.applyEqv5(m); ok {
			r.note("Eqv.5")
			return out
		}
		if out, ok := r.rw.applyEqv3(m); ok {
			r.note("Eqv.3")
			return out
		}
	}
	if out, ok := r.rw.applyEqv4(m); ok {
		r.note("Eqv.4")
		return out
	}
	if out, ok := r.rw.applyEqv2(m); ok {
		r.note("Eqv.2")
		return out
	}
	if out, ok := r.rw.applyEqv1(m); ok {
		r.note("Eqv.1")
		return out
	}
	return m
}

// selectSite unnests a quantifier selection.
func (r *rewritePass) selectSite(s algebra.Select) algebra.Op {
	// Rewrite inside the quantifier range first.
	switch q := s.Pred.(type) {
	case algebra.ExistsQ:
		q.Range = r.op(q.Range)
		s.Pred = q
	case algebra.ForallQ:
		q.Range = r.op(q.Range)
		s.Pred = q
	}

	if out, ok := r.rw.applyEqv6(s); ok {
		r.note("Eqv.6")
		return r.afterJoin(out)
	}
	if out, ok := r.rw.applyEqv7(s); ok {
		r.note("Eqv.7")
		return r.afterJoin(out)
	}
	return s
}

// afterJoin applies the post-join rewrites: residual pushdown (Sec. 5.5) and
// under StrategyGrouping the count rewrites Eqvs. 8/9.
func (r *rewritePass) afterJoin(o algebra.Op) algebra.Op {
	if r.strategy >= StrategyGrouping {
		switch j := o.(type) {
		case algebra.SemiJoin:
			if out, ok := r.rw.applyEqv8(j); ok {
				r.note("Eqv.8")
				return out
			}
		case algebra.AntiJoin:
			if out, ok := r.rw.applyEqv9(j); ok {
				r.note("Eqv.9")
				return out
			}
		}
	}
	// Push inner-only conjuncts into the join's right operand.
	switch j := o.(type) {
	case algebra.SemiJoin:
		if kept, newR, ok := pushResidual(j.L, j.R, j.Pred); ok {
			if kept == nil {
				kept = algebra.ConstVal{V: value.Bool(true)}
			}
			r.note("pushdown")
			return algebra.SemiJoin{L: j.L, R: newR, Pred: kept}
		}
	case algebra.AntiJoin:
		if kept, newR, ok := pushResidual(j.L, j.R, j.Pred); ok {
			if kept == nil {
				kept = algebra.ConstVal{V: value.Bool(true)}
			}
			r.note("pushdown")
			return algebra.AntiJoin{L: j.L, R: newR, Pred: kept}
		}
	}
	return o
}

// xiSite applies the result-construction level rewrites: the self-join
// grouping of Sec. 5.4 and (under StrategyGroupXi) Ξ fusion.
func (r *rewritePass) xiSite(x algebra.XiSimple) algebra.Op {
	if r.strategy >= StrategyGrouping {
		if out, ok := r.rw.applySelfJoinGrouping(x); ok {
			r.note("self-join-grouping")
			x2, isXi := out.(algebra.XiSimple)
			if !isXi {
				return out
			}
			x = x2
		}
	}
	if r.strategy >= StrategyGroupXi {
		if out, ok := r.rw.applyXiFusion(x); ok {
			r.note("xi-fusion")
			return out
		}
	}
	return x
}

// Validate checks that every Ξ command of the plan references only
// attributes the plan provides (rewrites that replace e1 must not lose
// attributes the result construction needs).
func Validate(plan algebra.Op) bool {
	okAll := true
	var walk func(o algebra.Op)
	walk = func(o algebra.Op) {
		check := func(cs []algebra.Command, in algebra.Op) {
			inAttrs := algebra.NameSet(in.Attrs())
			if len(inAttrs) == 0 {
				return // unknown schema: cannot validate
			}
			for _, c := range cs {
				if c.IsLit {
					continue
				}
				fv := map[string]bool{}
				algebra.FreeVars(c.E, fv)
				for v := range fv {
					if !inAttrs[v] {
						okAll = false
					}
				}
			}
		}
		switch w := o.(type) {
		case algebra.XiSimple:
			check(w.Cmds, w.In)
		case algebra.XiGroup:
			check(w.S1, w.In)
			check(w.S2, w.In)
			check(w.S3, w.In)
		}
		for _, c := range o.Children() {
			walk(c)
		}
	}
	walk(plan)
	return okAll
}

// Alternatives enumerates the plan alternatives of the paper's tables for a
// translated plan: the nested plan plus one plan per applicable strategy.
// Alternatives that do not change the plan or fail validation are dropped.
func (rw *Rewriter) Alternatives(plan algebra.Op) []PlanAlt {
	alts := []PlanAlt{{Name: "nested", Strategy: StrategyNested, Op: plan}}
	seen := map[string]bool{algebra.Explain(plan): true}
	for _, s := range []Strategy{StrategyGeneral, StrategyGrouping, StrategyGroupXi} {
		out, applied := rw.Rewrite(plan, s)
		key := algebra.Explain(out)
		if seen[key] || !Validate(out) {
			continue
		}
		seen[key] = true
		alts = append(alts, PlanAlt{Name: altName(s, applied), Strategy: s, Op: out, Applied: applied})
	}
	return alts
}

// altName derives the paper's row label from the applied equivalences.
func altName(s Strategy, applied []string) string {
	has := func(rule string) bool {
		for _, a := range applied {
			if a == rule {
				return true
			}
		}
		return false
	}
	switch {
	case s == StrategyGroupXi && has("xi-fusion"):
		return "group Ξ"
	case s >= StrategyGrouping && (has("Eqv.3") || has("Eqv.5") || has("Eqv.8") || has("Eqv.9") || has("self-join-grouping")):
		return "grouping"
	case has("Eqv.6"):
		return "semijoin"
	case has("Eqv.7"):
		return "anti-semijoin"
	case has("Eqv.2") || has("Eqv.4"):
		return "outer join"
	case has("Eqv.1"):
		return "binary grouping"
	default:
		return strings.ToLower(s.String())
	}
}

// ToUnordered returns op unchanged and reports no change: an unordered()
// query runs the plans of the query it wraps. It stays only because
// benchmark/layers.go calls it, until ROADMAP item 1b frees the harness.
func ToUnordered(op algebra.Op) (algebra.Op, bool) { return op, false }
