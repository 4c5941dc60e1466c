package transport

import (
	"testing"

	"clusterfds/internal/wire"
)

// BenchmarkChanMeshBroadcast is one datagram through the mesh at the size of
// bench's mesh160: 160 ports, a 333-byte payload (about that workload's mean
// datagram), every inbox drained after each broadcast. What benchcmp pins is
// 0 allocs/op: the one payload copy per broadcast is carved from a slab the
// drains have released. The loop first broadcasts past the slabs the mesh
// makes before it reuses one (slabHold+1 of them), so they do not count.
func BenchmarkChanMeshBroadcast(b *testing.B) {
	cm := NewChanMesh()
	links := make([]*ChanLink, 160)
	for i := range links {
		links[i] = cm.Join(wire.NodeID(i + 1))
	}
	payload := make([]byte, 333)
	var got int
	count := func(p Packet) { got += len(p.Payload) }
	broadcast := func() {
		if err := links[0].Broadcast(1, payload); err != nil {
			b.Fatal(err)
		}
		for _, l := range links[1:] {
			l.Inbox().Drain(count)
		}
	}
	warm := 2 * (slabHold + 1) * slabSize / len(payload)
	for i := 0; i < warm; i++ {
		broadcast()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broadcast()
	}
	if want := (warm + b.N) * (len(links) - 1) * len(payload); got != want {
		b.Fatalf("received %d bytes, want %d", got, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(len(links)-1)), "ns/rx")
}
