package nalquery

import (
	"context"
	"fmt"
	"math"

	"nalquery/internal/value"
)

// Prepared is a query compiled once for many parameterized executions: the
// compile-once/run-many surface of the engine. A query text may declare
// external variables —
//
//	declare variable $minyear external;
//	let $d1 := doc("bib.xml")
//	for $b1 in $d1//book
//	where $b1/@year > $minyear
//	return $b1/title
//
// — which Prepare compiles into typed parameter expressions: the whole
// parse→normalize→translate→unnest→cost pipeline runs exactly once, plan
// alternatives are chosen once, and each Run supplies bindings that only
// change the selection constants. A Prepared is immutable and safe for any
// number of concurrent Runs, each with its own bindings.
type Prepared struct {
	q *Query
}

// Prepare compiles a query containing external variables once, for repeated
// parameterized execution. It accepts the same options as Compile and, like
// Compile, snapshots the engine's documents and catalog — later Loads do
// not affect it. Queries without external variables prepare fine (Run then
// takes no Bind options).
func (e *Engine) Prepare(text string, opts ...CompileOption) (*Prepared, error) {
	q, err := e.Compile(text, opts...)
	if err != nil {
		return nil, err
	}
	return &Prepared{q: q}, nil
}

// Run starts one execution with per-run bindings and the usual Results
// session semantics, with zero recompilation:
//
//	res, err := p.Run(ctx, nalquery.Bind("minyear", 1993))
//
// Every declared external variable must be bound or Run returns a
// *BindError (ErrUnboundVariable); binding an undeclared name is a
// *BindError too (ErrUnknownVariable). Runs are independent and may
// execute concurrently from many goroutines.
func (p *Prepared) Run(ctx context.Context, opts ...RunOption) (*Results, error) {
	return p.q.Run(ctx, opts...)
}

// Query returns the underlying compiled query (plans, normalized form).
func (p *Prepared) Query() *Query { return p.q }

// Vars returns the declared external variable names in declaration order.
func (p *Prepared) Vars() []string { return p.q.Vars() }

// Plans returns the plan alternatives, from the nested baseline to the most
// optimized plan. The alternatives are fixed at Prepare: bindings never
// change the plan set.
func (p *Prepared) Plans() []Plan { return p.q.Plans() }

// Plan returns the alternative with the given name ("" selects the lowest
// estimated cost), with Query.Plan's error contract.
func (p *Prepared) Plan(name string) (Plan, error) { return p.q.Plan(name) }

// Bind supplies the value of the external variable $name for one Run. Go
// values map onto the engine's data model: bool, string, every integer
// kind, float32/float64, a result Value (e.g. pulled from a previous run's
// items), a []any of those as a sequence, and nil as the empty sequence.
// An unsupported type surfaces as a *BindError (ErrBindValue) from Run —
// never as a panic. Binding the same variable twice keeps the last value.
func Bind(name string, v any) RunOption {
	val, err := bindValue(v)
	return func(c *runConfig) {
		c.binds = append(c.binds, binding{name: name, v: val, err: err})
	}
}

// binding is one Bind argument, conversion already attempted (the error is
// reported by Run, keeping Bind's signature option-shaped).
type binding struct {
	name string
	v    value.Value
	err  error
}

// bindValue converts a Go value into the engine's data model.
func bindValue(v any) (value.Value, error) {
	switch w := v.(type) {
	case nil:
		return value.Null{}, nil
	case Value:
		if w.v == nil {
			return value.Null{}, nil
		}
		return w.v, nil
	case bool:
		return value.Bool(w), nil
	case string:
		return value.Str(w), nil
	case int:
		return value.Int(int64(w)), nil
	case int8:
		return value.Int(int64(w)), nil
	case int16:
		return value.Int(int64(w)), nil
	case int32:
		return value.Int(int64(w)), nil
	case int64:
		return value.Int(w), nil
	case uint:
		if uint64(w) > math.MaxInt64 {
			return nil, fmt.Errorf("uint value %d overflows the engine's integer range", w)
		}
		return value.Int(int64(w)), nil
	case uint8:
		return value.Int(int64(w)), nil
	case uint16:
		return value.Int(int64(w)), nil
	case uint32:
		return value.Int(int64(w)), nil
	case uint64:
		if w > math.MaxInt64 {
			return nil, fmt.Errorf("uint64 value %d overflows the engine's integer range", w)
		}
		return value.Int(int64(w)), nil
	case float32:
		return value.Float(float64(w)), nil
	case float64:
		return value.Float(w), nil
	case []any:
		seq := make(value.Seq, len(w))
		for i, m := range w {
			mv, err := bindValue(m)
			if err != nil {
				return nil, err
			}
			seq[i] = mv
		}
		return seq, nil
	default:
		return nil, fmt.Errorf("cannot bind Go value of type %T", v)
	}
}

// bindParams validates a run's Bind options against the query's declared
// external variables and resolves them into the positional binding table
// the engine reads (the slot order fixed at prepare time).
func (q *Query) bindParams(binds []binding) ([]value.Value, error) {
	if len(binds) == 0 && len(q.params) == 0 {
		return nil, nil
	}
	idx := make(map[string]int, len(q.params))
	for i, name := range q.params {
		idx[name] = i
	}
	params := make([]value.Value, len(q.params))
	bindErrs := make([]error, len(q.params))
	for _, b := range binds {
		i, ok := idx[b.name]
		if !ok {
			return nil, &BindError{Var: b.name, reason: ErrUnknownVariable,
				Detail: fmt.Sprintf("query declares %d external variable(s)", len(q.params))}
		}
		// Last bind of a name wins — including over an earlier conversion
		// error of the same name, so the error state tracks the value.
		params[i], bindErrs[i] = b.v, b.err
	}
	for i, name := range q.params {
		if bindErrs[i] != nil {
			return nil, &BindError{Var: name, reason: ErrBindValue, Detail: bindErrs[i].Error()}
		}
		if params[i] == nil {
			return nil, &BindError{Var: name, reason: ErrUnboundVariable}
		}
	}
	return params, nil
}
