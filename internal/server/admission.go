package server

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrShed reports that admission control rejected a request outright: every
// execution slot was busy and the wait queue was full. Shedding immediately
// (instead of letting requests pile up) keeps queue delay bounded and gives
// clients an honest signal to back off.
var ErrShed = errors.New("server: overloaded, request shed")

// admission is the front door's concurrency limiter: a semaphore of
// MaxInFlight execution slots plus a bounded wait queue of QueueDepth
// requests. A request either gets a slot, waits in the queue for one, or is
// shed immediately — there is no unbounded pileup, so the server's memory and
// queue delay stay bounded no matter the offered load.
type admission struct {
	slots   chan struct{} // execution permits; cap = max in-flight
	tickets chan struct{} // admitted-or-waiting permits; cap = in-flight + queue
	queued  atomic.Int64
}

func newAdmission(maxInFlight, queueDepth int) *admission {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &admission{
		slots:   make(chan struct{}, maxInFlight),
		tickets: make(chan struct{}, maxInFlight+queueDepth),
	}
}

// acquire admits the request or fails fast. It returns ErrShed when the wait
// queue is full, or the context's error if the caller gives up while queued.
// On success the caller must release().
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.tickets <- struct{}{}:
	default:
		return ErrShed
	}
	// Ticket held: wait for an execution slot.
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	a.queued.Add(1)
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		<-a.tickets
		return ctx.Err()
	}
}

// release returns the request's slot and ticket.
func (a *admission) release() {
	<-a.slots
	<-a.tickets
}

// inFlight returns the number of requests currently holding execution slots.
func (a *admission) inFlight() int { return len(a.slots) }
