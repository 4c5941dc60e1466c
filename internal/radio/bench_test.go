package radio

import (
	"fmt"
	"math/rand"
	"testing"

	"clusterfds/internal/geo"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// sinkNode accepts every delivery and does nothing.
type sinkNode struct {
	id  wire.NodeID
	pos geo.Point
}

func (s *sinkNode) ID() wire.NodeID                   { return s.id }
func (s *sinkNode) Pos() geo.Point                    { return s.pos }
func (s *sinkNode) Operational() bool                 { return true }
func (s *sinkNode) Deliver(wire.Message, wire.NodeID) {}

// BenchmarkBroadcast is the medium's fan-out against density: one lossless
// heartbeat among deg+1 hosts in mutual range, from Send through the last
// reception's decode — neighbour query, draws, the delivery run, the kernel
// firing it.
func BenchmarkBroadcast(b *testing.B) {
	for _, deg := range []int{10, 50} {
		b.Run(fmt.Sprintf("deg%d", deg), func(b *testing.B) {
			k := sim.New(1)
			m := New(k, Defaults(0))
			rng := rand.New(rand.NewSource(3))
			for i := 0; i <= deg; i++ {
				m.Attach(&sinkNode{id: wire.NodeID(i + 1), pos: geo.Point{X: rng.Float64() * 30, Y: rng.Float64() * 30}})
			}
			hb := &wire.Heartbeat{NID: 1, Epoch: 1}
			op := func(i int) {
				m.Send(wire.NodeID(i%(deg+1)+1), hb)
				k.Run()
			}
			op(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*deg), "ns/rx")
		})
	}
}
