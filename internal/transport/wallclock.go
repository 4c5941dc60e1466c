package transport

import (
	"sync"

	"clusterfds/internal/sim"
)

// WallClock is the daemon driver's view of real time: how much of it has
// passed since the daemon started, and a way to be woken after a delay. The
// production implementation (in cmd/fdsd, outside the deterministic
// packages, where the walltime analyzer permits time.*) wraps the system
// clock; tests use FakeWall so nothing ever sleeps on wall time.
//
// The protocol core itself never sees a WallClock — the daemon uses it only
// to decide when to advance its virtual-time kernel, so the core stays a
// pure function of (messages, seed).
type WallClock interface {
	// Elapsed returns how much wall time has passed since the epoch of the
	// clock (daemon start).
	Elapsed() sim.Time
	// After returns a channel that is closed once the given delay has
	// passed. Non-positive delays return an already-closed channel.
	After(d sim.Time) <-chan struct{}
}

// closedChan is the shared already-closed channel returned for non-positive
// delays.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// wallWaiter is one pending After call.
type wallWaiter struct {
	at sim.Time
	ch chan struct{}
}

// FakeWall is a manually advanced WallClock for tests: Elapsed returns
// exactly what Advance has accumulated, and After channels fire only when
// Advance crosses their deadline. Safe for concurrent use — the daemon's
// Run loop waits on it from one goroutine while the test advances it from
// another.
type FakeWall struct {
	mu      sync.Mutex
	now     sim.Time
	waiters []wallWaiter
}

// NewFakeWall returns a fake wall clock at elapsed time zero.
func NewFakeWall() *FakeWall { return &FakeWall{} }

// Elapsed implements WallClock.
func (w *FakeWall) Elapsed() sim.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.now
}

// After implements WallClock.
func (w *FakeWall) After(d sim.Time) <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if d <= 0 {
		return closedChan
	}
	ch := make(chan struct{})
	w.waiters = append(w.waiters, wallWaiter{at: w.now + d, ch: ch})
	return ch
}

// Pending returns how many After channels have not fired yet: the timers a
// driver has outstanding, whether or not it still waits on them.
func (w *FakeWall) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.waiters)
}

// Advance moves the clock forward by d and fires every waiter whose
// deadline has been reached. Advancing by a non-positive duration only
// fires already-due waiters.
func (w *FakeWall) Advance(d sim.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if d > 0 {
		w.now += d
	}
	kept := w.waiters[:0]
	for _, wt := range w.waiters {
		if wt.at <= w.now {
			close(wt.ch)
		} else {
			kept = append(kept, wt)
		}
	}
	w.waiters = kept
}
