package nalquery

import (
	"errors"
	"fmt"
	"strings"
)

// ErrNoPlan reports that a Query carries no plan alternatives to select
// from.
var ErrNoPlan = errors.New("nalquery: query has no plan alternatives")

// ErrUnknownPlan is the sentinel matched (via errors.Is) by the
// *UnknownPlanError returned when a named plan alternative does not exist.
var ErrUnknownPlan = errors.New("nalquery: no such plan")

// UnknownPlanError reports a plan name that matches none of a query's
// alternatives. It matches ErrUnknownPlan under errors.Is.
type UnknownPlanError struct {
	// Name is the plan name that was requested.
	Name string
	// Have lists the names of the query's plan alternatives.
	Have []string
}

func (e *UnknownPlanError) Error() string {
	return fmt.Sprintf("nalquery: no plan %q (have %s)", e.Name, strings.Join(e.Have, ", "))
}

// Is implements the errors.Is protocol: every UnknownPlanError matches the
// ErrUnknownPlan sentinel.
func (e *UnknownPlanError) Is(target error) bool { return target == ErrUnknownPlan }

// ErrUnboundVariable is the sentinel matched (via errors.Is) by the
// *BindError returned when a Run leaves a declared external variable
// without a binding.
var ErrUnboundVariable = errors.New("nalquery: external variable not bound")

// ErrUnknownVariable is the sentinel matched (via errors.Is) by the
// *BindError returned when a Bind names a variable the query does not
// declare external.
var ErrUnknownVariable = errors.New("nalquery: no such external variable")

// ErrBindValue is the sentinel matched (via errors.Is) by the *BindError
// returned when a Bind carries a Go value the engine's data model cannot
// represent.
var ErrBindValue = errors.New("nalquery: unsupported binding value")

// BindError reports a failed external-variable binding: an unknown or
// unbound variable, or a value of an unsupported type. It surfaces from Run
// (never as a panic) and matches the corresponding sentinel —
// ErrUnboundVariable, ErrUnknownVariable or ErrBindValue — under errors.Is.
type BindError struct {
	// Var is the external variable's name.
	Var string
	// Detail describes the failure (e.g. the rejected Go type).
	Detail string

	reason error
}

func (e *BindError) Error() string {
	msg := fmt.Sprintf("%v: $%s", e.reason, e.Var)
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return msg
}

// Is implements the errors.Is protocol against the binding sentinels.
func (e *BindError) Is(target error) bool { return target == e.reason }

// Unwrap returns the sentinel classifying the failure.
func (e *BindError) Unwrap() error { return e.reason }

// ErrInternal is the sentinel matched (via errors.Is) by the
// *InternalError produced when query evaluation panics. The panic is
// recovered at the public Run/Results boundary — one poison query fails
// its own run instead of taking the process down.
var ErrInternal = errors.New("nalquery: internal error")

// InternalError reports an evaluator panic recovered at the Run/Results
// boundary: Query.Run, Prepared.Run, Engine.Query and Results.Next/WriteXML
// all convert a panicking plan into this error instead of propagating the
// panic. It matches ErrInternal under errors.Is
// and carries everything a serving layer needs to log the poison query.
type InternalError struct {
	// Query is the text of the query whose evaluation panicked.
	Query string
	// Plan is the plan alternative that was running ("" if the panic
	// happened before plan selection).
	Plan string
	// Panic is the recovered panic value.
	Panic any
	// Stack is the goroutine stack captured at the recovery point; it
	// includes the panic origin.
	Stack []byte
}

func (e *InternalError) Error() string {
	if e.Plan == "" {
		return fmt.Sprintf("nalquery: internal error: %v", e.Panic)
	}
	return fmt.Sprintf("nalquery: internal error evaluating plan %q: %v", e.Plan, e.Panic)
}

// Is implements the errors.Is protocol: every InternalError matches the
// ErrInternal sentinel.
func (e *InternalError) Is(target error) bool { return target == ErrInternal }

// Unwrap exposes the panic value when it is itself an error, so callers can
// errors.Is/As through to a typed cause (panic(err) inside an evaluator).
func (e *InternalError) Unwrap() error {
	if err, ok := e.Panic.(error); ok {
		return err
	}
	return nil
}

// ErrResourceExhausted is the sentinel matched (via errors.Is) by the
// *ResourceError produced when a run crosses its resource budget (see
// WithMaxMemory / WithMaxTuples). Like a cancellation it fails only the
// offending run — the engine and every concurrent run keep working.
var ErrResourceExhausted = errors.New("nalquery: resource budget exhausted")

// ResourceError reports a run aborted by its resource budget: a pipeline
// breaker, scan, dedup table or result serialization tried to materialize
// past the configured byte or tuple limit. It surfaces from Run, Results
// consumption and WriteXML — never as a panic, never as a silent partial
// result — and matches ErrResourceExhausted under errors.Is.
type ResourceError struct {
	// Query is the text of the query whose run tripped.
	Query string
	// Plan is the plan alternative that was running.
	Plan string
	// Op labels the operator boundary that tripped: "scan", "build",
	// "probe", "sort", "group", "partition", "dedup" or "serialize".
	Op string
	// Bytes and Tuples are the run's charge counters at the trip.
	Bytes, Tuples int64
	// MaxBytes and MaxTuples are the run's limits (0 = unlimited; both
	// zero means the trip was forced by a fault-injection hook).
	MaxBytes, MaxTuples int64
}

func (e *ResourceError) Error() string {
	return fmt.Sprintf("nalquery: resource budget exhausted at %s in plan %q (%d bytes, %d tuples; limits %d bytes, %d tuples)",
		e.Op, e.Plan, e.Bytes, e.Tuples, e.MaxBytes, e.MaxTuples)
}

// Is implements the errors.Is protocol: every ResourceError matches the
// ErrResourceExhausted sentinel.
func (e *ResourceError) Is(target error) bool { return target == ErrResourceExhausted }

// ParseError is a query syntax error with its source position.
type ParseError struct {
	// Line is the 1-based line of the query text the parser stopped at.
	Line int
	// Col is the 1-based column (byte offset within the line) the parser
	// stopped at.
	Col int
	// Msg describes the syntax error.
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xquery: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// ErrTranslate is the sentinel matched (via errors.Is) by the
// *TranslateError returned when a syntactically valid query falls outside
// the supported XQuery subset.
var ErrTranslate = errors.New("nalquery: query not translatable")

// TranslateError reports a query the compiler rejects after parsing: the
// expression is syntactically valid XQuery but outside the subset the
// translator supports (or a shape the normalizer should have rewritten).
// It surfaces from Compile/Prepare — never as a panic — and matches
// ErrTranslate under errors.Is.
type TranslateError struct {
	// Msg describes the rejection.
	Msg string
}

func (e *TranslateError) Error() string { return "nalquery: translate: " + e.Msg }

// Is implements the errors.Is protocol: every TranslateError matches the
// ErrTranslate sentinel.
func (e *TranslateError) Is(target error) bool { return target == ErrTranslate }
