package radio

import (
	"math/rand"
	"testing"
	"time"

	"clusterfds/internal/geo"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// TestBlocksOutliveTheirReaders is the serial medium's check on the blocks'
// reuse rule (DESIGN.md §12): a transmission's payload and delivery items are
// released only once every delivery due before the kernel's now has fired.
// Forty hosts on a field wider than the range send digests of every length
// from 0 to 39 IDs for 3 s of virtual time, so that payloads and runs
// straddle block boundaries and blocks are reused many times. Released
// blocks are zeroed, so a delivery that reads one after its release decodes
// zeros and panics, or carries another transmission's digest or lands at the
// wrong host or instant; every reception is checked against what its sender
// sent. The sends come at random instants with delays spread over
// [MinDelay, MaxDelay], and then on a 1 ms grid with a fixed 1 ms delay, so
// that a send carves at the very instant earlier deliveries are still due:
// the case that makes the rule "before now", not "by now".
func TestBlocksOutliveTheirReaders(t *testing.T) {
	spread := Defaults(0.2)
	fixed := spread
	fixed.MinDelay, fixed.MaxDelay = sim.Time(time.Millisecond), sim.Time(time.Millisecond)
	checkBlocksOutliveReaders(t, spread, 1)
	checkBlocksOutliveReaders(t, fixed, sim.Time(time.Millisecond))
}

// checkBlocksOutliveReaders runs TestBlocksOutliveTheirReaders' field with
// the given medium, sending at random multiples of grid.
func checkBlocksOutliveReaders(t *testing.T, params Params, grid sim.Time) {
	t.Helper()
	k := sim.New(3)
	m := New(k, params)
	rng := rand.New(rand.NewSource(4))
	type sent struct {
		from wire.NodeID
		at   sim.Time
	}
	var sends []sent
	receptions := 0
	nodes := make([]*stubNode, 40)
	for i := range nodes {
		n := &stubNode{id: wire.NodeID(i + 1), pos: geo.Point{X: rng.Float64() * 250, Y: rng.Float64() * 250}}
		n.onDeliver = func() {
			receptions++
			r := n.received[len(n.received)-1]
			d, ok := r.msg.(*wire.Digest)
			if !ok || int(d.Epoch) >= len(sends) {
				t.Fatalf("host %v received %+v from %v, which nobody sent", n.id, r.msg, r.from)
			}
			s := sends[d.Epoch]
			heard := d.HeardIDs()
			if d.NID != r.from || s.from != r.from || len(heard) != int(d.Epoch%40) || len(heard) > 0 && heard[len(heard)-1] != wire.NodeID(len(heard)) {
				t.Fatalf("host %v received %+v from %v; send %d was host %v's digest of %d IDs", n.id, d, r.from, d.Epoch, s.from, d.Epoch%40)
			}
			if delay := k.Now() - s.at; delay < params.MinDelay || delay > params.MaxDelay {
				t.Fatalf("host %v received send %d after %v, outside [%v, %v]", n.id, d.Epoch, delay, params.MinDelay, params.MaxDelay)
			}
			if !n.pos.WithinRange(nodes[s.from-1].pos, params.Range) {
				t.Fatalf("host %v received send %d from out-of-range host %v", n.id, d.Epoch, s.from)
			}
			n.received = n.received[:0]
		}
		nodes[i] = n
		m.Attach(n)
	}
	ids := make([]wire.NodeID, 40)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	for i := 0; i < 6000; i++ {
		at := grid * sim.Time(rng.Int63n(int64(3*time.Second)/int64(grid)))
		from := wire.NodeID(rng.Intn(len(nodes)) + 1)
		k.At(at, func() {
			seq := len(sends)
			sends = append(sends, sent{from, k.Now()})
			m.Send(from, &wire.Digest{NID: from, CH: 1, Epoch: wire.Epoch(seq), Heard: ids[:seq%40]})
		})
	}
	k.Run()

	if want := m.Counters()["rx:digest"]; int64(receptions) != want || want == 0 {
		t.Fatalf("%d receptions checked, the medium counts %d", receptions, want)
	}
	_, payloads := m.payloads.Counts()
	_, items := m.items.Counts()
	if payloads == 0 || items == 0 {
		t.Fatalf("the medium released %d payload and %d item blocks; both pools must release some for the check to see anything", payloads, items)
	}
}
