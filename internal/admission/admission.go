// Package admission implements bounded-concurrency admission control for
// request-serving front ends: a fixed number of in-flight slots plus a
// bounded wait queue. A request either gets a slot (immediately or after
// queueing), is shed because the queue is full, expires while queued (its
// context fires), or is refused because the controller is draining.
//
// The point is graceful degradation: under overload the service answers
// every request promptly — admitted ones with results, excess ones with a
// cheap rejection — instead of stacking unbounded goroutines until the
// process collapses. Counters expose the control decisions so operators
// and load tests can see shedding happen.
package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrShed reports that the wait queue was full: the request was rejected
// immediately so the caller can answer 429/Retry-After while the system
// keeps its concurrency bound.
var ErrShed = errors.New("admission: overloaded, request shed")

// ErrDraining reports that the controller has stopped admitting because
// the service is shutting down.
var ErrDraining = errors.New("admission: draining, not admitting")

// Controller is the admission gate. The zero value is unusable; construct
// with New. All methods are safe for concurrent use.
type Controller struct {
	slots     chan struct{} // buffered to the in-flight cap; a send holds a slot
	maxQueue  int64
	drainCh   chan struct{} // closed by Drain, unblocking every queued waiter
	drainOnce sync.Once

	queued   atomic.Int64 // instantaneous waiters beyond the in-flight cap
	active   atomic.Int64 // instantaneous slot holders
	admitted atomic.Int64 // cumulative successful Acquires
	shed     atomic.Int64 // cumulative queue-full rejections
	expired  atomic.Int64 // cumulative context expiries while queued
	draining atomic.Bool
}

// New builds a controller admitting at most maxInFlight concurrent holders
// with at most maxQueue requests waiting beyond them. maxInFlight < 1 is
// raised to 1; maxQueue < 0 is treated as 0 (shed as soon as all slots are
// busy).
func New(maxInFlight, maxQueue int) *Controller {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Controller{
		slots:    make(chan struct{}, maxInFlight),
		maxQueue: int64(maxQueue),
		drainCh:  make(chan struct{}),
	}
}

// Capacity returns the in-flight and queue bounds.
func (c *Controller) Capacity() (maxInFlight, maxQueue int) {
	return cap(c.slots), int(c.maxQueue)
}

// Acquire obtains an in-flight slot, waiting in the bounded queue if all
// slots are busy. On success it returns an idempotent release function the
// caller must invoke when the work is done. Otherwise it returns ErrShed
// (queue full), ErrDraining (controller draining), or the context's
// cancellation cause (deadline or cancel while queued).
func (c *Controller) Acquire(ctx context.Context) (release func(), err error) {
	if c.draining.Load() {
		return nil, ErrDraining
	}
	// Fast path: a free slot admits without touching the queue.
	select {
	case c.slots <- struct{}{}:
		return c.admit(), nil
	default:
	}
	if c.queued.Add(1) > c.maxQueue {
		c.queued.Add(-1)
		c.shed.Add(1)
		return nil, ErrShed
	}
	defer c.queued.Add(-1)
	select {
	case c.slots <- struct{}{}:
		// Drain may have started while we were queued; prefer refusing so
		// shutdown does not admit fresh work.
		if c.draining.Load() {
			<-c.slots
			return nil, ErrDraining
		}
		return c.admit(), nil
	case <-ctx.Done():
		c.expired.Add(1)
		return nil, context.Cause(ctx)
	case <-c.drainCh:
		return nil, ErrDraining
	}
}

// admit records a successful acquisition and builds its release closure.
func (c *Controller) admit() func() {
	c.active.Add(1)
	c.admitted.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			c.active.Add(-1)
			<-c.slots
		})
	}
}

// Drain permanently stops admitting: current and future Acquires — queued
// ones included — return ErrDraining, while already-admitted holders keep
// their slots until they release. Drain is idempotent.
func (c *Controller) Drain() {
	c.drainOnce.Do(func() {
		c.draining.Store(true)
		close(c.drainCh)
	})
}

// Wait blocks until no slot is held or ctx fires, returning nil on idle
// and the context's cancellation cause otherwise. It is the
// graceful-shutdown barrier: Drain, then Wait with the drain budget.
func (c *Controller) Wait(ctx context.Context) error {
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		if c.active.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-t.C:
		}
	}
}

// Counters is a snapshot of the controller's admission statistics. Active
// and Queued are instantaneous; the rest are cumulative.
type Counters struct {
	Active   int64 `json:"active"`
	Queued   int64 `json:"queued"`
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	Expired  int64 `json:"expired"`
}

// Counters returns a snapshot of the admission statistics.
func (c *Controller) Counters() Counters {
	return Counters{
		Active:   c.active.Load(),
		Queued:   c.queued.Load(),
		Admitted: c.admitted.Load(),
		Shed:     c.shed.Load(),
		Expired:  c.expired.Load(),
	}
}
