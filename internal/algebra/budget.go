package algebra

import (
	"fmt"

	"nalquery/internal/value"
)

// Per-run resource governance. The paper's plan alternatives differ exactly
// in how much state their pipeline breakers materialize (hash builds, sort
// buffers, grouped payloads), and an adversarial or mis-estimated query can
// grow that state without bound. A Budget turns unbounded growth into a
// per-query failure: every materialization point charges the run's budget,
// and the first charge past a limit aborts the run with a typed
// ResourceTrip — the process-level analogue of "degrade per query, not per
// process".
//
// Accounting is an estimate, not an RSS measurement: each materialized row
// or tuple charges a fixed structural overhead plus one machine word per
// attribute slot, and Ξ serialization charges the emitted bytes (output
// accumulates in spill buffers and in-memory builders, so it is a
// materialization point too). The model is deliberately cheap — a couple of
// integer adds and compares per materialized row, nothing on streaming
// rows — and consistent across both engines, which is what a trip threshold
// needs; it is not a promise about exact heap use.

// Trip-point labels. Every charge and fault site names the operator
// boundary it guards; the label travels on the ResourceTrip so callers can
// see which materialization tripped, and the fault-injection harness keys
// on it to force allocation failure at one exact boundary.
const (
	// TripScan is the Υ scan producer (per produced tuple).
	TripScan = "scan"
	// TripBuild is the build side of the order-preserving hash-join family.
	TripBuild = "build"
	// TripProbe is the probe side of a join (streaming — a fault point, not
	// a charge point).
	TripProbe = "probe"
	// TripSort is the Sort breaker's materialization buffer.
	TripSort = "sort"
	// TripGroup is a Γ/Ξ-group bucket table or grouped payload backing.
	TripGroup = "group"
	// TripDedup is a µD/ΠD duplicate-elimination table.
	TripDedup = "dedup"
	// TripSerialize is Ξ result emission (literal markup and values).
	TripSerialize = "serialize"
)

// Budget is the per-run resource governor: byte and tuple limits plus the
// running charge counters. A Budget belongs to exactly one run (one Ctx)
// and is accessed from that run's single goroutine — no synchronization.
// The zero limits mean "unlimited"; a nil *Budget on the Ctx disables all
// accounting (the default — one nil check per materialized row).
type Budget struct {
	// MaxBytes bounds the estimated bytes materialized by the run
	// (0 = unlimited).
	MaxBytes int64
	// MaxTuples bounds the tuples materialized by the run (0 = unlimited).
	MaxTuples int64

	bytes  int64
	tuples int64

	// hook, when set, is the fault-injection point: it is consulted on
	// every charge and fault site with the site's trip label, and a true
	// return forces the trip regardless of the limits — a deterministic
	// stand-in for allocation failure at that boundary.
	hook func(point string) bool
}

// NewBudget builds a budget with the given limits (0 = unlimited).
func NewBudget(maxBytes, maxTuples int64) *Budget {
	return &Budget{MaxBytes: maxBytes, MaxTuples: maxTuples}
}

// SetFaultHook installs the fault-injection hook (see Budget.hook). The
// hook is called from the run's goroutine only.
func (b *Budget) SetFaultHook(h func(point string) bool) { b.hook = h }

// Bytes returns the estimated bytes charged so far.
func (b *Budget) Bytes() int64 { return b.bytes }

// Tuples returns the tuples charged so far.
func (b *Budget) Tuples() int64 { return b.tuples }

// trip raises the typed resource panic. The public Run/Results boundary
// recovers it into *nalquery.ResourceError — it is the one sanctioned
// panic of the engine, used because the iterator protocol has no error
// channel and a budget trip must abort the whole pipeline, not one
// operator.
func (b *Budget) trip(point string) {
	panic(&ResourceTrip{Op: point, Bytes: b.bytes, Tuples: b.tuples,
		MaxBytes: b.MaxBytes, MaxTuples: b.MaxTuples})
}

// exceeded reports whether a limit has been crossed.
func (b *Budget) exceeded() bool {
	return (b.MaxBytes > 0 && b.bytes > b.MaxBytes) ||
		(b.MaxTuples > 0 && b.tuples > b.MaxTuples)
}

// ResourceTrip is the panic payload of a budget trip. It carries the
// operator boundary that tripped and the charge counters at that moment;
// the public API converts it into the typed *nalquery.ResourceError, so it
// never escapes to callers as a panic.
type ResourceTrip struct {
	// Op is the trip-point label (TripScan, TripBuild, ...).
	Op string
	// Bytes and Tuples are the charges accumulated when the trip fired.
	Bytes, Tuples int64
	// MaxBytes and MaxTuples are the run's limits (0 = unlimited — the
	// trip then came from the fault-injection hook).
	MaxBytes, MaxTuples int64
}

func (t *ResourceTrip) Error() string {
	return fmt.Sprintf("resource budget exhausted at %s (%d bytes, %d tuples; limits %d bytes, %d tuples)",
		t.Op, t.Bytes, t.Tuples, t.MaxBytes, t.MaxTuples)
}

// Byte-accounting model: a materialized row costs its backing slice header
// plus one interface word pair per slot; a map tuple costs the same per
// entry plus the map's per-entry overhead. Serialized values without a
// cheaply known size charge a flat word count.
const (
	rowOverheadBytes   = 48
	rowSlotBytes       = 16
	tupleEntryBytes    = 48
	dedupEntryBytes    = 64
	emitValueFlatBytes = 32
)

func approxRowBytes(r value.Row) int64 {
	return rowOverheadBytes + rowSlotBytes*int64(len(r.Vals))
}

func approxTupleBytes(t value.Tuple) int64 {
	return rowOverheadBytes + tupleEntryBytes*int64(len(t))
}

// charge debits the run's budget at a materialization point and trips when
// a limit is crossed (or the fault hook fires). With no budget attached it
// is a single nil check — the disabled-by-default cost every existing plan
// pays.
func (c *Ctx) charge(point string, tuples int, bytes int64) {
	b := c.Budget
	if b == nil {
		return
	}
	b.tuples += int64(tuples)
	b.bytes += bytes
	if b.hook != nil && b.hook(point) {
		b.trip(point)
	}
	if b.exceeded() {
		b.trip(point)
	}
}

// ChargeRow debits one materialized slot row.
func (c *Ctx) ChargeRow(point string, r value.Row) {
	if c.Budget == nil {
		return
	}
	c.charge(point, 1, approxRowBytes(r))
}

// ChargeTuple debits one materialized map tuple (the reference engine's
// data model).
func (c *Ctx) ChargeTuple(point string, t value.Tuple) {
	if c.Budget == nil {
		return
	}
	c.charge(point, 1, approxTupleBytes(t))
}

// ChargeTuples bulk-debits a materialized tuple sequence (the reference
// engine's breakers materialize whole inputs at once).
func (c *Ctx) ChargeTuples(point string, ts value.TupleSeq) {
	if c.Budget == nil || len(ts) == 0 {
		return
	}
	var bytes int64
	for _, t := range ts {
		bytes += approxTupleBytes(t)
	}
	c.charge(point, len(ts), bytes)
}

// ChargeBytes debits raw bytes (Ξ serialization, payload backings).
func (c *Ctx) ChargeBytes(point string, n int) {
	if c.Budget == nil {
		return
	}
	c.charge(point, 0, int64(n))
}

// Fault is a pure fault-injection point for boundaries that stream rather
// than materialize (the probe side of a join): it charges nothing and only
// consults the injection hook. Disabled cost: one nil check.
func (c *Ctx) Fault(point string) {
	b := c.Budget
	if b == nil || b.hook == nil {
		return
	}
	if b.hook(point) {
		b.trip(point)
	}
}
