package daemon

import (
	"testing"

	"clusterfds/internal/cluster"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// BenchmarkDaemonIdleStep is what a cooperative driver pays for a daemon that
// has nothing to do: one Poll on an empty port and one AdvanceTo that stops
// short of the next protocol timer. With Thop = 20 ms and φ = 10 s that is
// over 99 % of the steps bench's mesh160 makes. benchcmp pins 0 allocs/op.
func BenchmarkDaemonIdleStep(b *testing.B) {
	timing := cluster.DefaultTiming()
	cm := transport.NewChanMesh()
	d := New(Config{ID: 1, Seed: 1, Timing: timing, Peers: []wire.NodeID{2}}, cm.Join(1))
	d.AdvanceTo(timing.Interval / 2) // past epoch 0's rounds
	next, ok := d.Kernel().NextEventAt()
	if !ok {
		b.Fatal("a booted daemon has no timer pending")
	}
	t := d.Now()
	if int64(next-t) <= int64(b.N) {
		b.Fatalf("next event at %v leaves no room for %d idle steps from %v", next, b.N, t)
	}
	steps := d.Kernel().Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t++
		d.Poll()
		d.AdvanceTo(t)
	}
	b.StopTimer()
	if got := d.Kernel().Steps(); got != steps {
		b.Fatalf("%d events fired during steps that were meant to be idle", got-steps)
	}
}
