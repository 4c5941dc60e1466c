// Package par is the stripshare fixture: worker goroutines may touch only
// their own strip's state; everything else goes through the merge barrier.
package par

import (
	"sync/atomic"

	"clusterfds/internal/sim"
)

type stripState struct {
	sends int
	buf   []int
}

type engine struct {
	strips []stripState
	crash  []bool
	heard  []uint64
	tick   int64
}

var lastTick int64

// --- firing -----------------------------------------------------------------

// badShared: a worker writes engine-level state every worker can see.
func (e *engine) badShared(w int) {
	go func() {
		e.tick = int64(w) // want `worker writes shared state e\.tick outside the merge barrier`
	}()
}

// badCaptured: a captured pointer is shared across workers too.
func (e *engine) badCaptured(total *int) {
	go func() {
		*total = 1 // want `worker writes shared state \*total outside the merge barrier`
	}()
}

// badPkgVar: package state is the most shared state of all.
func (e *engine) badPkgVar() {
	go func() {
		lastTick = 0 // want `worker writes shared state lastTick outside the merge barrier`
	}()
}

// badCrossStrip: neighbor-strip arithmetic reaches another worker's state.
func (e *engine) badCrossStrip(w int) {
	go func() {
		e.strips[w+1].sends = 0 // want `cross-strip index arithmetic e\.strips\[\.\.\.\] inside a worker region`
	}()
}

// badCrossStripRead: reads bypass the barrier just as much as writes.
func (e *engine) badCrossStripRead(w int, out chan int) {
	go func() {
		out <- e.strips[w-1].sends // want `cross-strip index arithmetic e\.strips\[\.\.\.\] inside a worker region`
	}()
}

// badSharedInWorkerDecl: the rule follows calls out of the closure.
func (e *engine) badSharedInWorkerDecl(w int) {
	go e.worker(w)
}

func (e *engine) worker(w int) {
	e.strips[w].sends++
	e.tick++ // want `worker writes shared state e\.tick outside the merge barrier`
}

// badDrain: the engines spawn no goroutines; their worker region is the
// drain function handed to the shared window driver. The next and barrier
// arguments run serially on the caller and stay unchecked.
func (e *engine) badDrain() {
	sim.RunWindows(len(e.strips), 2, 0, 10,
		func(s int) (sim.Time, bool) {
			e.tick++
			return 0, false
		},
		func(s int, end sim.Time) {
			e.strips[s].sends++
			e.strips[s+1].sends++ // want `cross-strip index arithmetic e\.strips\[\.\.\.\] inside a worker region`
			e.tick = int64(end)   // want `worker writes shared state e\.tick outside the merge barrier`
		},
		func(end sim.Time) {
			e.tick = int64(end)
			e.strips[0].sends += e.strips[0+1].sends
		})
}

// badDrainMethod: a method value handed over as the drain is a worker entry
// point like a `go e.worker(w)` target — its receiver is the whole engine.
func (e *engine) badDrainMethod() {
	sim.RunWindows(len(e.strips), 2, 0, 10, e.nextAt, e.drainLane, e.closeWindow)
}

func (e *engine) nextAt(s int) (sim.Time, bool) { return sim.Time(e.strips[s].sends), true }

func (e *engine) drainLane(s int, end sim.Time) {
	e.strips[s].sends++
	e.tick++ // want `worker writes shared state e\.tick outside the merge barrier`
}

func (e *engine) closeWindow(end sim.Time) {
	e.tick++
	e.strips[0].sends += e.strips[0+1].sends
}

// --- non-firing -------------------------------------------------------------

// goodOwnStrip: indexed per-strip and per-host slots are the sanctioned
// shape, including through a local handle.
func (e *engine) goodOwnStrip(w int, hosts []int) {
	go func() {
		e.strips[w].sends++
		st := &e.strips[w]
		st.sends++
		for _, i := range hosts {
			e.crash[i] = true
		}
	}()
}

// goodBitset: flat per-host rows are addressed with row+bit arithmetic —
// the element type is not strip state.
func (e *engine) goodBitset(row, w int) {
	go func() {
		e.heard[row+w] = 0
	}()
}

// goodCallIndex: a computed-by-call index is the shard routing pattern
// (e.shards[e.shardOf(i)]), not neighbor arithmetic.
func (e *engine) stripOf(i int) int { return i % len(e.strips) }

func (e *engine) goodCallIndex(i int) {
	go func() {
		e.strips[e.stripOf(i)].sends++
	}()
}

// goodHelperReceiver: a method reached through a call from the worker
// operates on caller-owned storage — the worker hands push its own strip's
// heap, so the receiver write is not shared state. Contrast with worker
// above, whose receiver is the engine because it is a direct go target.
type miniHeap struct{ a []int }

func (h *miniHeap) push(v int) {
	h.a = append(h.a, v)
	h.a[0] = v
}

func (e *engine) goodHelperReceiver(w int, hp *miniHeap) {
	go func() {
		hp.push(w)
	}()
}

// goodComms: channels and atomics are the sanctioned cross-worker paths.
func (e *engine) goodComms(ctr *int64, out chan int) {
	go func() {
		n := atomic.AddInt64(ctr, 1)
		local := int(n)
		local++
		out <- local
	}()
}

// goodSerial: the merge barrier itself runs with no workers live.
func (e *engine) goodSerial() {
	e.tick++
	for w := 1; w < len(e.strips); w++ {
		e.strips[0].sends += e.strips[w].sends
	}
}
