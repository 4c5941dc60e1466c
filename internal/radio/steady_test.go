package radio_test

import (
	"testing"

	"clusterfds/internal/scenario"
)

// TestMediumBlocksSteadyState pins that the serial medium's blocks are
// recycled: on dense300's configuration (300 hosts on 200 m, loss 0.1, four
// crashes in epoch 4, seed 1), once the crash wave has settled, epochs 8 to
// 27 make at most two new payload blocks and two new item blocks. A pool's
// size is the most deliveries ever in flight at once, which peaks when the
// hosts send at a phase instant: a later epoch can set a new peak that needs
// one more block (seed 1 does, in epoch 26), while a pool that never freed a
// block would make about ninety item blocks an epoch.
func TestMediumBlocksSteadyState(t *testing.T) {
	w := scenario.Build(scenario.Config{Seed: 1, Nodes: 300, FieldSide: 200, LossProb: 0.1, Stack: scenario.StackClusterFDS})
	timing := w.Config().Timing
	w.CrashRandomAt(timing.EpochStart(4)+timing.Interval/2, 4)
	w.RunEpochs(8)
	payloads, items := w.Medium.BlocksMade()
	w.RunEpochs(28)
	p2, i2 := w.Medium.BlocksMade()
	t.Logf("blocks made by epoch 8: %d payload, %d item; by epoch 28: %d, %d", payloads, items, p2, i2)
	if p2-payloads > 2 || i2-items > 2 {
		t.Errorf("epochs 8-27 made %d payload and %d item blocks, want at most 2 of each", p2-payloads, i2-items)
	}
}
