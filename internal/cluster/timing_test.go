package cluster

import (
	"math"
	"testing"
	"time"

	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

func TestTimingRoundOffsets(t *testing.T) {
	tm := DefaultTiming()
	if !tm.Valid() {
		t.Fatal("default timing invalid")
	}
	if tm.R1End() != tm.Thop || tm.R2End() != 2*tm.Thop || tm.R3End() != 3*tm.Thop {
		t.Errorf("round offsets wrong: %v %v %v", tm.R1End(), tm.R2End(), tm.R3End())
	}
}

func TestEpochRoundTrip(t *testing.T) {
	tm := DefaultTiming()
	for _, e := range []wire.Epoch{0, 1, 2, 17, 1000, 1 << 29} {
		if got := tm.EpochOf(tm.EpochStart(e)); got != e {
			t.Errorf("EpochOf(EpochStart(%d)) = %d", e, got)
		}
		// Any instant strictly inside the epoch maps back to it too.
		if got := tm.EpochOf(tm.EpochStart(e) + tm.Interval - 1); got != e {
			t.Errorf("EpochOf(end of %d) = %d", e, got)
		}
	}
	if tm.EpochOf(-5) != 0 {
		t.Error("negative instants must clamp to epoch 0")
	}
}

// TestEpochStartOverflowSaturates is the regression test for the unguarded
// uint64(Interval)*uint64(e) product: with Interval = 10s (1e10 ns), epochs
// beyond ~9.2e8 overflowed int64 and came back NEGATIVE, so a protocol
// scheduling "the next epoch" at a saturated epoch number asked the kernel
// for an instant in the past — an immediate-fire busy loop. The guarded
// product must stay non-negative, monotone, and pinned at the ceiling.
func TestEpochStartOverflowSaturates(t *testing.T) {
	tm := DefaultTiming()
	// Just below the overflow threshold: exact arithmetic.
	safe := wire.Epoch(uint64(math.MaxInt64) / uint64(tm.Interval))
	if got := tm.EpochStart(safe); got < 0 || got != sim.Time(uint64(tm.Interval)*uint64(safe)) {
		t.Errorf("EpochStart(%d) = %v, want exact non-negative product", safe, got)
	}
	// At and beyond the threshold: saturate, never wrap.
	for _, e := range []wire.Epoch{safe + 1, 3_000_000_000, math.MaxUint64} {
		got := tm.EpochStart(e)
		if got < 0 {
			t.Fatalf("EpochStart(%d) = %v, went negative (pre-fix overflow)", e, got)
		}
		if got != sim.Time(math.MaxInt64) {
			t.Errorf("EpochStart(%d) = %v, want saturation at MaxInt64", e, got)
		}
	}
	// Monotone across the boundary.
	if tm.EpochStart(safe) > tm.EpochStart(safe+1) {
		t.Error("EpochStart not monotone across the saturation boundary")
	}
}

func TestEpochStartSmallIntervalNoFalseSaturation(t *testing.T) {
	tm := Timing{Thop: sim.Time(time.Millisecond), Interval: sim.Time(8 * time.Millisecond)}
	if !tm.Valid() {
		t.Fatal("timing should be valid")
	}
	if got := tm.EpochStart(1 << 40); got != sim.Time(uint64(tm.Interval))*(1<<40) {
		t.Errorf("EpochStart(2^40) = %v, spuriously saturated", got)
	}
}

// TestEpochStartSaturationTable sweeps the saturation boundary across
// several interval scales: for each timing, the largest epoch whose product
// still fits in int64 must compute exactly, and every epoch past it must pin
// to the ceiling — with the sequence monotone through the boundary.
func TestEpochStartSaturationTable(t *testing.T) {
	cases := []struct {
		name string
		tm   Timing
	}{
		{"default-10s", DefaultTiming()},
		{"tight-8ms", Timing{Thop: sim.Time(time.Millisecond), Interval: sim.Time(8 * time.Millisecond)}},
		{"coarse-1m", Timing{Thop: sim.Time(time.Second), Interval: sim.Time(time.Minute)}},
		{"one-ns", Timing{Thop: 1, Interval: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			threshold := wire.Epoch(uint64(math.MaxInt64) / uint64(tc.tm.Interval))
			subCases := []struct {
				name string
				e    wire.Epoch
				want sim.Time
			}{
				{"zero", 0, 0},
				{"one", 1, tc.tm.Interval},
				{"last-exact", threshold, sim.Time(uint64(tc.tm.Interval) * uint64(threshold))},
				{"first-saturated", threshold + 1, sim.Time(math.MaxInt64)},
				{"deep-saturated", threshold * 2, sim.Time(math.MaxInt64)},
				{"max-epoch", math.MaxUint64, sim.Time(math.MaxInt64)},
			}
			prev := sim.Time(-1)
			for _, sc := range subCases {
				got := tc.tm.EpochStart(sc.e)
				if got != sc.want {
					t.Errorf("%s: EpochStart(%d) = %v, want %v", sc.name, sc.e, got, sc.want)
				}
				if got < 0 {
					t.Errorf("%s: EpochStart(%d) = %v went negative", sc.name, sc.e, got)
				}
				if got < prev {
					t.Errorf("%s: EpochStart not monotone (%v after %v)", sc.name, got, prev)
				}
				prev = got
			}
			// The boot boundary at the same scales: on a boundary join that
			// epoch, anywhere past it wait for the next — including the
			// last instant there is, whose next boundary is saturated.
			boots := []struct {
				name string
				now  sim.Time
				want wire.Epoch
			}{
				{"before-zero", -5, 0},
				{"at-zero", 0, 0},
				{"tick-after-zero", 1, 1},
				{"tick-before-one", tc.tm.Interval - 1, 1},
				{"exactly-three", tc.tm.EpochStart(3), 3},
				{"tick-after-three", tc.tm.EpochStart(3) + 1, 4},
				{"last-exact-boundary", tc.tm.EpochStart(threshold), threshold},
				{"end-of-time", math.MaxInt64, threshold + 1},
			}
			for _, b := range boots {
				if got := tc.tm.FirstEpochAt(b.now); got != b.want {
					t.Errorf("%s: FirstEpochAt(%v) = %d, want %d", b.name, b.now, got, b.want)
				}
			}
		})
	}
}
