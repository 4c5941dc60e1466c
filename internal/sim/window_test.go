package sim

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// fakeLanes is a toy conservative simulation for driving RunWindows: each
// lane holds sorted pending event times; draining an event before `quiet`
// sends a follow-up to the next lane, lookahead+1 ticks later, through an
// outbox the barrier merges — the same shape as the real engines.
type fakeLanes struct {
	lookahead, quiet Time
	pending          [][]Time
	out              [][]Time // out[src]: events for lane (src+1)%n
	drains           [][]Time // drains[lane]: the end of every drain call
	barriers         []Time
}

func newFakeLanes(lookahead, quiet Time, initial ...[]Time) *fakeLanes {
	n := len(initial)
	return &fakeLanes{
		lookahead: lookahead, quiet: quiet, pending: initial,
		out: make([][]Time, n), drains: make([][]Time, n),
	}
}

func (f *fakeLanes) next(lane int) (Time, bool) {
	if len(f.pending[lane]) == 0 {
		return 0, false
	}
	return f.pending[lane][0], true
}

func (f *fakeLanes) drain(lane int, end Time) {
	f.drains[lane] = append(f.drains[lane], end)
	for len(f.pending[lane]) > 0 && f.pending[lane][0] <= end {
		at := f.pending[lane][0]
		f.pending[lane] = f.pending[lane][1:]
		if at < f.quiet {
			f.out[lane] = append(f.out[lane], at+f.lookahead+1+Time(lane))
		}
	}
}

func (f *fakeLanes) barrier(end Time) {
	f.barriers = append(f.barriers, end)
	for src := range f.out {
		dst := (src + 1) % len(f.out)
		f.pending[dst] = append(f.pending[dst], f.out[src]...)
		slices.Sort(f.pending[dst])
		f.out[src] = f.out[src][:0]
	}
}

func (f *fakeLanes) run(workers int, limit Time) {
	RunWindows(len(f.pending), workers, f.lookahead, limit, f.next, f.drain, f.barrier)
}

// TestRunWindowsWorkerCountInvariance: every lane sees the same sequence of
// (lane, end) drains and the barrier the same sequence of ends at any
// worker count, including more workers than lanes. `go test -race` runs the
// pool against the per-lane state.
func TestRunWindowsWorkerCountInvariance(t *testing.T) {
	build := func() *fakeLanes {
		return newFakeLanes(4, 400, []Time{0, 3, 50}, []Time{1}, []Time{}, []Time{2, 2, 90})
	}
	want := build()
	want.run(1, 1000)
	if len(want.barriers) < 10 {
		t.Fatalf("toy run closed only %d windows; not exercising the loop", len(want.barriers))
	}
	for lane, d := range want.drains {
		if !slices.Equal(d, want.barriers) {
			t.Fatalf("lane %d drained to %v, want once per window: %v", lane, d, want.barriers)
		}
	}
	for _, workers := range []int{2, 4, 9} {
		got := build()
		got.run(workers, 1000)
		if !reflect.DeepEqual(got.drains, want.drains) {
			t.Errorf("workers=%d: per-lane drain sequence differs from workers=1", workers)
		}
		if !slices.Equal(got.barriers, want.barriers) {
			t.Errorf("workers=%d: barrier sequence %v, want %v", workers, got.barriers, want.barriers)
		}
	}
}

// TestRunWindowsJumpsIdleStretch: with nothing pending between two bursts,
// the driver jumps — the stretch costs no window of its own.
func TestRunWindowsJumpsIdleStretch(t *testing.T) {
	f := newFakeLanes(10, 0, []Time{5}, []Time{1_000_000})
	f.run(2, 2_000_000)
	if want := []Time{15, 1_000_010}; !slices.Equal(f.barriers, want) {
		t.Errorf("barriers at %v, want %v (one per burst)", f.barriers, want)
	}
}

// TestRunWindowsClipsLastWindow: the final window ends at limit, and events
// after limit stay pending.
func TestRunWindowsClipsLastWindow(t *testing.T) {
	f := newFakeLanes(10, 0, []Time{95, 101})
	f.run(1, 100)
	if want := []Time{100}; !slices.Equal(f.barriers, want) {
		t.Errorf("barriers at %v, want %v", f.barriers, want)
	}
	if want := []Time{101}; !slices.Equal(f.pending[0], want) {
		t.Errorf("pending after run %v, want %v", f.pending[0], want)
	}
}

// TestRunWindowsClipsOverflow: a window opening within span of MaxInt64 is
// clipped to limit instead of wrapping to a negative end.
func TestRunWindowsClipsOverflow(t *testing.T) {
	const top = Time(math.MaxInt64)
	f := newFakeLanes(1000, 0, []Time{top - 5}, []Time{top})
	f.run(2, top)
	if want := []Time{top}; !slices.Equal(f.barriers, want) {
		t.Errorf("barriers at %v, want %v", f.barriers, want)
	}
	if len(f.pending[0])+len(f.pending[1]) != 0 {
		t.Errorf("events left pending: %v", f.pending)
	}
}
