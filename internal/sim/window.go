package sim

import (
	"sync"
	"sync/atomic"
)

// RunWindows is the conservative-window driver behind both parallel engines
// (internal/par, internal/shard). The caller owns `lanes` independent event
// queues whose events can affect another lane no sooner than span+1 ticks
// later — the lookahead. The driver repeats, until no lane has an event at or
// before limit:
//
//  1. serially ask every lane for its earliest pending event (next) and jump
//     to the minimum t, so an idle stretch of any length costs one window;
//  2. close the window at end = min(t+span, limit) — a CLOSED interval
//     [t, end]; a caller that drains half-open windows [t, t+W) up to an
//     exclusive horizon passes span = W-1, limit = horizon-1 and drains
//     events strictly before end+1;
//  3. call drain(lane, end) once per lane on a pool of `workers` goroutines
//     (the calling goroutine is one of them) that lives for the whole call;
//  4. call barrier(end) serially, with every drain finished — the one place
//     cross-lane state may move.
//
// next and barrier always run on the calling goroutine. drain runs
// concurrently for different lanes, in no fixed lane-to-worker assignment, so
// it may touch only its own lane's state; given that, the sequence of
// (lane, end) drains per lane and of barrier calls is the same at every
// worker count, which is what makes the engines' results independent of it.
// That rule is enforced dynamically: `make race` runs both engines' tests
// with several workers under the race detector.
func RunWindows(lanes, workers int, span, limit Time,
	next func(lane int) (Time, bool),
	drain func(lane int, end Time),
	barrier func(end Time)) {
	if span < 0 {
		panic("sim: RunWindows span must not be negative")
	}
	if workers > lanes {
		workers = lanes
	}

	var (
		end    Time
		cursor atomic.Int64
	)
	drainAll := func() {
		for {
			lane := int(cursor.Add(1)) - 1
			if lane >= lanes {
				return
			}
			drain(lane, end)
		}
	}

	var start, done chan struct{}
	if workers > 1 {
		start, done = make(chan struct{}), make(chan struct{})
		var exited sync.WaitGroup
		for i := 1; i < workers; i++ {
			exited.Add(1)
			go func() {
				defer exited.Done()
				for range start {
					drainAll()
					done <- struct{}{}
				}
			}()
		}
		defer exited.Wait()
		defer close(start)
	}

	for {
		t, found := Time(0), false
		for lane := 0; lane < lanes; lane++ {
			if at, ok := next(lane); ok && (!found || at < t) {
				t, found = at, true
			}
		}
		if !found || t > limit {
			return
		}
		// t+span wraps only next to MaxInt64; clip instead.
		if end = t + span; end > limit || end < t {
			end = limit
		}

		cursor.Store(0)
		for i := 1; i < workers; i++ {
			start <- struct{}{}
		}
		drainAll()
		for i := 1; i < workers; i++ {
			<-done
		}

		barrier(end)
	}
}
