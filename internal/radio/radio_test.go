package radio

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"clusterfds/internal/geo"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// stubNode is a minimal Receiver recording deliveries.
type stubNode struct {
	id       wire.NodeID
	pos      geo.Point
	crashed  bool
	received []receivedMsg
	// onDeliver, when set, runs inside Deliver after the message is recorded.
	onDeliver func()
}

type receivedMsg struct {
	msg  wire.Message
	from wire.NodeID
	at   sim.Time
}

func (s *stubNode) ID() wire.NodeID   { return s.id }
func (s *stubNode) Pos() geo.Point    { return s.pos }
func (s *stubNode) Operational() bool { return !s.crashed }
func (s *stubNode) Deliver(m wire.Message, from wire.NodeID) {
	// Per the medium's delivery contract the message is backed by this
	// receiver's decode scratch and valid only during the call; a recorder
	// that keeps history must clone.
	s.received = append(s.received, receivedMsg{msg: wire.Clone(m), from: from})
	if s.onDeliver != nil {
		s.onDeliver()
	}
}

// lossless returns params with zero loss and fixed delay for deterministic
// assertions.
func lossless() Params {
	p := Defaults(0)
	p.MinDelay, p.MaxDelay = sim.Time(time.Millisecond), sim.Time(time.Millisecond)
	return p
}

func makeField(t *testing.T, k *sim.Kernel, params Params, positions []geo.Point) (*Medium, []*stubNode) {
	t.Helper()
	m := New(k, params)
	nodes := make([]*stubNode, len(positions))
	for i, pos := range positions {
		nodes[i] = &stubNode{id: wire.NodeID(i + 1), pos: pos}
		m.Attach(nodes[i])
	}
	return m, nodes
}

func TestPromiscuousDelivery(t *testing.T) {
	k := sim.New(1)
	// Node 1 at origin; 2 and 3 in range; 4 out of range.
	m, nodes := makeField(t, k, lossless(), []geo.Point{
		{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 0, Y: 99}, {X: 150, Y: 0},
	})
	m.Send(1, &wire.Heartbeat{NID: 1, Epoch: 1})
	k.Run()

	if len(nodes[0].received) != 0 {
		t.Error("sender received its own message")
	}
	for _, in := range []int{1, 2} {
		if len(nodes[in].received) != 1 {
			t.Errorf("node %d received %d messages, want 1 (promiscuous)", in+1, len(nodes[in].received))
		}
	}
	if len(nodes[3].received) != 0 {
		t.Error("out-of-range node received a message")
	}
	hb, ok := nodes[1].received[0].msg.(*wire.Heartbeat)
	if !ok || hb.NID != 1 || hb.Epoch != 1 {
		t.Errorf("delivered message corrupted: %#v", nodes[1].received[0].msg)
	}
	if nodes[1].received[0].from != 1 {
		t.Errorf("from = %v, want 1", nodes[1].received[0].from)
	}
}

func TestBoundaryExactlyInRange(t *testing.T) {
	k := sim.New(1)
	m, nodes := makeField(t, k, lossless(), []geo.Point{
		{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100.001, Y: 0},
	})
	m.Send(1, &wire.Heartbeat{NID: 1})
	k.Run()
	if len(nodes[1].received) != 1 {
		t.Error("node exactly at range R should receive")
	}
	if len(nodes[2].received) != 0 {
		t.Error("node just beyond R should not receive")
	}
}

func TestCrashedSenderSilent(t *testing.T) {
	k := sim.New(1)
	m, nodes := makeField(t, k, lossless(), []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	nodes[0].crashed = true
	m.Send(1, &wire.Heartbeat{NID: 1})
	k.Run()
	if len(nodes[1].received) != 0 {
		t.Error("crashed sender transmitted")
	}
	if m.Sent(wire.KindHeartbeat) != 0 {
		t.Error("crashed sender counted as tx")
	}
}

func TestCrashedReceiverDropsAtDelivery(t *testing.T) {
	k := sim.New(1)
	m, nodes := makeField(t, k, lossless(), []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	m.Send(1, &wire.Heartbeat{NID: 1})
	// Crash receiver before the delivery event fires.
	nodes[1].crashed = true
	k.Run()
	if len(nodes[1].received) != 0 {
		t.Error("crashed receiver got a delivery")
	}
}

// TestReceiverCrashesMidTransmission crashes one receiver after another
// receiver of the same transmission has already heard it: one transmission is
// one kernel entry, but each reception still checks its own receiver at its
// own instant, and a reception that finds its host down costs that host
// nothing.
func TestReceiverCrashesMidTransmission(t *testing.T) {
	k := sim.New(1)
	params := Defaults(0) // delays spread over [1 ms, 12 ms]
	m, nodes := makeField(t, k, params, []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}, {X: 10, Y: 10}})
	msg := &wire.Heartbeat{NID: 1}
	// Whoever hears it first takes every other receiver down with it.
	var first *stubNode
	for _, n := range nodes[1:] {
		n.onDeliver = func() {
			first = n
			for _, other := range nodes[1:] {
				other.crashed = other != n
			}
		}
	}
	m.Send(1, msg)
	k.Run()

	if first == nil || k.Steps() != 3 {
		t.Fatalf("first receiver %v, kernel steps %d; want a receiver and 3 firings", first, k.Steps())
	}
	c := m.Counters()
	if c["rx:heartbeat"] != 1 || c["drop:receiver-down"] != 2 {
		t.Errorf("rx = %d, drop:receiver-down = %d; want 1, 2", c["rx:heartbeat"], c["drop:receiver-down"])
	}
	wantRx := params.RxByteCost * float64(msg.WireSize())
	for _, n := range nodes[1:] {
		want, heard := 0.0, 0
		if n == first {
			want, heard = wantRx, 1
		}
		if got := m.EnergySpent(n.id); got != want || len(n.received) != heard {
			t.Errorf("node %v: spent %v, heard %d; want %v, %d", n.id, got, len(n.received), want, heard)
		}
	}
}

// TestSendFromLastReception has the receiver of a transmission's LAST
// reception answer from inside Deliver. The transmission is still the
// medium's at that point — recycled only once Deliver has returned — so the
// answer must get a buffer of its own and both must arrive intact.
func TestSendFromLastReception(t *testing.T) {
	k := sim.New(1)
	m, nodes := makeField(t, k, lossless(), []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}})
	answer := &wire.Digest{NID: 3, CH: 1, Epoch: 9, Heard: []wire.NodeID{1, 2, 3, 4, 5}}
	last := nodes[2] // fixed delay: receptions fire in attach order, so node 3's is the last
	last.onDeliver = func() {
		last.onDeliver = nil
		m.Send(3, answer)
	}
	m.Send(1, &wire.Heartbeat{NID: 1, Epoch: 9})
	k.Run()

	for _, n := range nodes[1:] {
		if hb, ok := n.received[0].msg.(*wire.Heartbeat); !ok || n.received[0].from != 1 || hb.Epoch != 9 {
			t.Errorf("node %v: first reception %+v from %v, want node 1's heartbeat", n.id, n.received[0].msg, n.received[0].from)
		}
	}
	for _, n := range nodes[:2] {
		got := n.received[len(n.received)-1]
		d, ok := got.msg.(*wire.Digest)
		if !ok || got.from != 3 || d.Epoch != 9 || !slices.Equal(d.HeardIDs(), answer.Heard) {
			t.Errorf("node %v: last reception %+v from %v, want node 3's digest", n.id, got.msg, got.from)
		}
	}
	if len(m.txFree) != 2 || m.txFree[0] == m.txFree[1] {
		t.Errorf("pool after the drain is %v, want 2 distinct transmissions", m.txFree)
	}
}

// TestOverlappingTransmissionsDeliverTheirOwn sends two heartbeats at one
// instant with spread delays, so their receptions interleave and the medium's
// decode scratch is rewritten between two receptions of the same
// transmission: every reception must still carry its own sender's heartbeat.
func TestOverlappingTransmissionsDeliverTheirOwn(t *testing.T) {
	k := sim.New(1)
	m, nodes := makeField(t, k, Defaults(0), []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}, {X: 10, Y: 10}, {X: 5, Y: 5}})
	var order []wire.NodeID
	for _, n := range nodes {
		n.onDeliver = func() { order = append(order, n.received[len(n.received)-1].from) }
	}
	m.Send(1, &wire.Heartbeat{NID: 1, Epoch: 1})
	m.Send(2, &wire.Heartbeat{NID: 2, Epoch: 2})
	k.Run()

	if i := slices.Index(order, 2); i < 0 || !slices.Contains(order[i:], 1) {
		t.Fatalf("receptions in order of senders %v do not interleave", order)
	}
	for _, n := range nodes {
		for _, r := range n.received {
			if hb, ok := r.msg.(*wire.Heartbeat); !ok || hb.NID != r.from || hb.Epoch != wire.Epoch(r.from) {
				t.Errorf("node %v: reception from %v carries %+v, want that sender's heartbeat", n.id, r.from, r.msg)
			}
		}
	}
}

// TestTxPoolHighWaterIsFlat overlaps broadcasts (one per millisecond, each in
// flight for up to 12) and checks that the pool stops growing once it covers
// the overlap: every transmission comes back exactly once.
func TestTxPoolHighWaterIsFlat(t *testing.T) {
	k := sim.New(5)
	m, _ := makeField(t, k, Defaults(0.1), []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}, {X: 10, Y: 10}})
	sent := 0
	pooled := func(upTo int) int {
		for ; sent < upTo; sent++ {
			from := wire.NodeID(sent%4 + 1)
			k.Schedule(sim.Time(sent%1000)*sim.Time(time.Millisecond), func() { m.Send(from, &wire.Heartbeat{NID: from}) })
			if sent%1000 == 999 {
				k.Run()
			}
		}
		seen := make(map[*txBuf]bool)
		for _, tb := range m.txFree {
			if seen[tb] {
				t.Fatalf("after %d broadcasts the pool holds one transmission twice", upTo)
			}
			seen[tb] = true
		}
		return len(m.txFree)
	}
	// One send per millisecond, each gone within 12: at most 13 overlap.
	if warm := pooled(1000); warm < 2 || warm > 13 {
		t.Fatalf("pool holds %d transmissions after 1000 broadcasts, want the <= 13 that overlap", warm)
	}
	if after := pooled(10000); after > 13 {
		t.Errorf("pool grew to %d transmissions by 10k broadcasts, want the <= 13 that overlap", after)
	}
}

func TestUnattachedSenderIgnored(t *testing.T) {
	k := sim.New(1)
	m, _ := makeField(t, k, lossless(), []geo.Point{{X: 0, Y: 0}})
	m.Send(999, &wire.Heartbeat{NID: 999}) // must not panic
	k.Run()
}

func TestTotalLossDropsEverything(t *testing.T) {
	params := Defaults(1.0)
	k := sim.New(1)
	m, nodes := makeField(t, k, params, []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	for i := 0; i < 20; i++ {
		m.Send(1, &wire.Heartbeat{NID: 1})
	}
	k.Run()
	if len(nodes[1].received) != 0 {
		t.Error("p=1 should lose every message")
	}
	if m.Dropped() != 20 {
		t.Errorf("Dropped = %d, want 20", m.Dropped())
	}
}

func TestLossRateStatistical(t *testing.T) {
	const p = 0.3
	params := Defaults(p)
	k := sim.New(42)
	m, nodes := makeField(t, k, params, []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	const n = 20000
	for i := 0; i < n; i++ {
		m.Send(1, &wire.Heartbeat{NID: 1})
	}
	k.Run()
	got := 1 - float64(len(nodes[1].received))/n
	if math.Abs(got-p) > 0.02 {
		t.Errorf("empirical loss %v, want ~%v", got, p)
	}
}

func TestPerLinkLossIndependent(t *testing.T) {
	// One sender, two receivers: loss must be drawn independently per
	// receiver, so the probability both miss is ~p^2.
	const p = 0.5
	params := Defaults(p)
	k := sim.New(7)
	m, nodes := makeField(t, k, params, []geo.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10},
	})
	const n = 20000
	for i := 0; i < n; i++ {
		m.Send(1, &wire.Heartbeat{NID: 1, Epoch: wire.Epoch(i)})
	}
	k.Run()
	// Count rounds where both receivers missed epoch i.
	got2 := map[wire.Epoch]int{}
	for _, nd := range nodes[1:] {
		for _, r := range nd.received {
			got2[r.msg.(*wire.Heartbeat).Epoch]++
		}
	}
	bothMissed := 0
	for i := 0; i < n; i++ {
		if got2[wire.Epoch(i)] == 0 {
			bothMissed++
		}
	}
	frac := float64(bothMissed) / n
	if math.Abs(frac-p*p) > 0.02 {
		t.Errorf("P(both miss) = %v, want ~%v", frac, p*p)
	}
}

func TestSetLinkLoss(t *testing.T) {
	k := sim.New(1)
	m, nodes := makeField(t, k, lossless(), []geo.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10},
	})
	m.SetLinkLoss(1, 2, 1.0) // kill link 1->2 only
	for i := 0; i < 10; i++ {
		m.Send(1, &wire.Heartbeat{NID: 1})
	}
	k.Run()
	if len(nodes[1].received) != 0 {
		t.Error("overridden link delivered")
	}
	if len(nodes[2].received) != 10 {
		t.Errorf("untouched link delivered %d, want 10", len(nodes[2].received))
	}
	// Remove the override.
	m.SetLinkLoss(1, 2, -1)
	m.Send(1, &wire.Heartbeat{NID: 1})
	k.Run()
	if len(nodes[1].received) != 1 {
		t.Error("override removal did not restore the link")
	}
}

func TestSilence(t *testing.T) {
	k := sim.New(1)
	m, nodes := makeField(t, k, lossless(), []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	m.Silence(1, true)
	m.Send(1, &wire.Heartbeat{NID: 1})
	k.Run()
	if len(nodes[1].received) != 0 {
		t.Error("silenced host transmitted")
	}
	m.Silence(1, false)
	m.Send(1, &wire.Heartbeat{NID: 1})
	k.Run()
	if len(nodes[1].received) != 1 {
		t.Error("unsilencing did not restore transmission")
	}
}

// TestSilencedSenderCounters pins the silenced-sender accounting order: a
// jammed radio still burns tx energy (the host believes it transmitted),
// but the attempt must NOT appear under tx:<kind>/tx-bytes — message-count
// experiments would otherwise overstate cost — and instead lands in the
// dedicated tx-silenced counters. Regression test for the pre-fix Send,
// which counted tx:<kind> and tx-bytes before the silenced check.
func TestSilencedSenderCounters(t *testing.T) {
	k := sim.New(1)
	m, nodes := makeField(t, k, lossless(), []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	m.Silence(1, true)
	msg := &wire.Heartbeat{NID: 1, Epoch: 1}
	m.Send(1, msg)
	k.Run()

	c := m.Counters()
	if c["tx:heartbeat"] != 0 {
		t.Errorf("silenced send counted under tx:heartbeat = %d, want 0", c["tx:heartbeat"])
	}
	if c["tx-bytes"] != 0 {
		t.Errorf("silenced send counted under tx-bytes = %d, want 0", c["tx-bytes"])
	}
	if c["drop:silenced"] != 1 {
		t.Errorf("drop:silenced = %d, want 1", c["drop:silenced"])
	}
	if c["tx-silenced-msgs"] != 1 || c["tx-silenced-bytes"] != int64(msg.WireSize()) {
		t.Errorf("tx-silenced-msgs=%d tx-silenced-bytes=%d, want 1 and %d",
			c["tx-silenced-msgs"], c["tx-silenced-bytes"], msg.WireSize())
	}
	if m.Sent(wire.KindHeartbeat) != 0 {
		t.Errorf("Sent(heartbeat) = %d, want 0", m.Sent(wire.KindHeartbeat))
	}
	// The jammed radio still spent transmission energy.
	if spent := m.EnergySpent(1); spent <= 0 {
		t.Errorf("silenced sender spent %v energy, want > 0", spent)
	}
	if len(nodes[1].received) != 0 {
		t.Error("silenced host was heard")
	}

	// Unsilenced sends count normally again.
	m.Silence(1, false)
	m.Send(1, msg)
	k.Run()
	if m.Sent(wire.KindHeartbeat) != 1 || m.Received(wire.KindHeartbeat) != 1 {
		t.Errorf("post-unsilence Sent=%d Received=%d, want 1,1",
			m.Sent(wire.KindHeartbeat), m.Received(wire.KindHeartbeat))
	}
}

func TestDelayWithinBounds(t *testing.T) {
	params := Defaults(0)
	k := sim.New(3)
	m := New(k, params)
	m.Attach(&stubNode{id: 1})
	deliveredAt := make([]sim.Time, 0, 200)
	m.Attach(&timeRecorder{
		stub: &stubNode{id: 2, pos: geo.Point{X: 10}}, k: k, times: &deliveredAt,
	})
	var sentAt []sim.Time
	for i := 0; i < 200; i++ {
		at := sim.Time(i) * sim.Time(time.Second)
		k.At(at, func() { m.Send(1, &wire.Heartbeat{NID: 1}) })
		sentAt = append(sentAt, at)
	}
	k.Run()
	if len(deliveredAt) != 200 {
		t.Fatalf("delivered %d, want 200", len(deliveredAt))
	}
	for i, at := range deliveredAt {
		d := at - sentAt[i]
		if d < params.MinDelay || d > params.MaxDelay {
			t.Fatalf("delivery %d delay %v outside [%v, %v]", i, d, params.MinDelay, params.MaxDelay)
		}
	}
}

// timeRecorder is a receiver that records the kernel time of each delivery.
type timeRecorder struct {
	stub  *stubNode
	k     *sim.Kernel
	times *[]sim.Time
}

func (r *timeRecorder) ID() wire.NodeID   { return r.stub.ID() }
func (r *timeRecorder) Pos() geo.Point    { return r.stub.Pos() }
func (r *timeRecorder) Operational() bool { return r.stub.Operational() }
func (r *timeRecorder) Deliver(m wire.Message, from wire.NodeID) {
	*r.times = append(*r.times, r.k.Now())
	r.stub.Deliver(m, from)
}

func TestNeighbors(t *testing.T) {
	k := sim.New(1)
	m, nodes := makeField(t, k, lossless(), []geo.Point{
		{X: 0, Y: 0}, {X: 99, Y: 0}, {X: 101, Y: 0}, {X: 0, Y: 50}, {X: -70, Y: -70},
	})
	got := m.Neighbors(nodes[0].pos, 1)
	want := map[wire.NodeID]bool{2: true, 4: true, 5: true}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v, want IDs %v", got, want)
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected neighbor %v", id)
		}
	}
	// Crashed nodes are excluded.
	nodes[3].crashed = true
	if got := m.Neighbors(nodes[0].pos, 1); len(got) != 2 {
		t.Errorf("crashed node still listed: %v", got)
	}
}

func TestEnergyAccounting(t *testing.T) {
	params := lossless()
	params.HarvestRate = 0
	k := sim.New(1)
	m, _ := makeField(t, k, params, []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	hb := &wire.Heartbeat{NID: 1}
	m.Send(1, hb)
	k.Run()
	size := float64(hb.WireSize())
	wantTx := params.TxBaseCost + params.TxByteCost*size
	if got := m.EnergySpent(1); math.Abs(got-wantTx) > 1e-9 {
		t.Errorf("sender spent %v, want %v", got, wantTx)
	}
	wantRx := params.RxByteCost * size
	if got := m.EnergySpent(2); math.Abs(got-wantRx) > 1e-9 {
		t.Errorf("receiver spent %v, want %v", got, wantRx)
	}
	if got := m.TotalEnergySpent(); math.Abs(got-wantTx-wantRx) > 1e-9 {
		t.Errorf("total spent %v, want %v", got, wantTx+wantRx)
	}
	if got := m.Energy(1); math.Abs(got-(params.InitialEnergy-wantTx)) > 1e-9 {
		t.Errorf("Energy(1) = %v", got)
	}
}

func TestEnergyHarvest(t *testing.T) {
	params := lossless()
	params.HarvestRate = 10
	params.InitialEnergy = 100
	k := sim.New(1)
	m, _ := makeField(t, k, params, []geo.Point{{X: 0, Y: 0}})
	k.RunUntil(sim.Time(5 * time.Second))
	if got := m.Energy(1); math.Abs(got-150) > 1e-9 {
		t.Errorf("Energy after 5s harvest = %v, want 150", got)
	}
	if got := m.Energy(999); got != 0 {
		t.Errorf("Energy(unknown) = %v, want 0", got)
	}
}

func TestCounters(t *testing.T) {
	k := sim.New(1)
	m, _ := makeField(t, k, lossless(), []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	m.Send(1, &wire.Heartbeat{NID: 1})
	m.Send(1, &wire.Digest{NID: 1, Heard: []wire.NodeID{2}})
	k.Run()
	c := m.Counters()
	if c["tx:heartbeat"] != 1 || c["tx:digest"] != 1 {
		t.Errorf("tx counters wrong: %v", c)
	}
	if c["rx:heartbeat"] != 1 || c["rx:digest"] != 1 {
		t.Errorf("rx counters wrong: %v", c)
	}
	if c["tx-bytes"] <= 0 {
		t.Error("tx-bytes not counted")
	}
	if m.Sent(wire.KindHeartbeat) != 1 {
		t.Error("Sent(heartbeat) != 1")
	}
}

func TestTraceEvents(t *testing.T) {
	mem := trace.NewMemory()
	params := Defaults(1.0) // always lose
	k := sim.New(1)
	m := New(k, params, WithTrace(mem))
	a := &stubNode{id: 1, pos: geo.Point{X: 0, Y: 0}}
	b := &stubNode{id: 2, pos: geo.Point{X: 10, Y: 0}}
	m.Attach(a)
	m.Attach(b)
	m.Send(1, &wire.Heartbeat{NID: 1})
	k.Run()
	if mem.Count(trace.TypeSend) != 1 {
		t.Error("no send event")
	}
	if mem.Count(trace.TypeDrop) != 1 {
		t.Error("no drop event")
	}
}

func TestAttachValidation(t *testing.T) {
	k := sim.New(1)
	m := New(k, lossless())
	m.Attach(&stubNode{id: 1})
	for _, bad := range []*stubNode{{id: 1}, {id: wire.NoNode}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Attach(%v) should panic", bad.id)
				}
			}()
			m.Attach(bad)
		}()
	}
}

func TestNewValidation(t *testing.T) {
	k := sim.New(1)
	cases := []Params{
		{Range: 0},
		{Range: 100, LossProb: -0.1},
		{Range: 100, LossProb: 1.1},
		{Range: 100, MinDelay: 10, MaxDelay: 5},
	}
	for i, p := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New should panic", i)
				}
			}()
			New(k, p)
		}()
	}
}

// TestValidateDelays pins the delays a medium accepts to those the kernel
// can schedule: no delivery before its send, and none further out than a run
// item's 32-bit offset reaches, so that a bad delay is refused at New instead
// of panicking or wrapping at the first draw.
func TestValidateDelays(t *testing.T) {
	for _, c := range []struct {
		min, max sim.Time
		want     string // "" when valid
	}{
		{-5 * sim.Time(time.Millisecond), sim.Time(time.Millisecond), "negative MinDelay"},
		{-1, -1, "negative MinDelay"},
		{0, 1 << 40, "MaxDelay 18m19.511627776s past"},
		{0, math.MaxUint32 + 1, "past the 4.294967295s"},
		{sim.Time(time.Millisecond), 0, "MaxDelay < MinDelay"},
		{0, 0, ""},
		{0, math.MaxUint32, ""},
		{math.MaxUint32, math.MaxUint32, ""},
	} {
		p := Defaults(0)
		p.MinDelay, p.MaxDelay = c.min, c.max
		err := p.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("delays [%v, %v]: rejected: %v", c.min, c.max, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("delays [%v, %v]: error %v, want one containing %q", c.min, c.max, err, c.want)
		}
	}
}

func TestGridLargeField(t *testing.T) {
	// 1000 nodes over a 1000x1000 field: Neighbors via the grid must match
	// a brute-force scan.
	k := sim.New(5)
	params := lossless()
	m := New(k, params)
	pts := geo.PlaceUniformRect(k.Rand(), geo.NewRect(1000, 1000), 1000)
	nodes := make([]*stubNode, len(pts))
	for i, p := range pts {
		nodes[i] = &stubNode{id: wire.NodeID(i + 1), pos: p}
		m.Attach(nodes[i])
	}
	for _, probe := range []int{0, 17, 500, 999} {
		at := nodes[probe].pos
		got := map[wire.NodeID]bool{}
		for _, id := range m.Neighbors(at, nodes[probe].id) {
			got[id] = true
		}
		want := map[wire.NodeID]bool{}
		for _, n := range nodes {
			if n.id != nodes[probe].id && at.WithinRange(n.pos, params.Range) {
				want[n.id] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("probe %d: grid found %d neighbors, brute force %d", probe, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("probe %d: missing neighbor %v", probe, id)
			}
		}
	}
}

func TestUpdatePos(t *testing.T) {
	k := sim.New(1)
	m, nodes := makeField(t, k, lossless(), []geo.Point{{X: 0, Y: 0}, {X: 500, Y: 500}})
	if len(m.Neighbors(nodes[0].pos, 1)) != 0 {
		t.Fatal("nodes should start out of range")
	}
	old := nodes[1].pos
	nodes[1].pos = geo.Point{X: 10, Y: 0}
	m.UpdatePos(2, old)
	if len(m.Neighbors(nodes[0].pos, 1)) != 1 {
		t.Error("moved node not found after UpdatePos")
	}
	m.UpdatePos(999, old) // unknown id is a no-op
}

// TestNeighborsAppendMatchesNeighbors checks the scratch-slice variant
// returns exactly what Neighbors returns, reuses the caller's buffer, and
// allocates nothing once the buffer is warm.
func TestNeighborsAppendMatchesNeighbors(t *testing.T) {
	k := sim.New(5)
	m := New(k, Defaults(0))
	center := geo.Point{X: 0, Y: 0}
	nodes := make([]*stubNode, 40)
	for i := range nodes {
		nodes[i] = &stubNode{id: wire.NodeID(i + 1), pos: geo.UniformInDisk(k.Rand(), center, 150)}
		m.Attach(nodes[i])
	}
	nodes[3].crashed = true

	buf := make([]wire.NodeID, 0, 64)
	for _, probe := range []geo.Point{center, {X: 80, Y: -40}, {X: 500, Y: 500}} {
		want := m.Neighbors(probe, 1)
		buf = m.NeighborsAppend(buf[:0], probe, 1)
		if len(want) != len(buf) {
			t.Fatalf("probe %v: Neighbors=%v NeighborsAppend=%v", probe, want, buf)
		}
		for i := range want {
			if want[i] != buf[i] {
				t.Fatalf("probe %v: order diverges: %v vs %v", probe, want, buf)
			}
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		buf = m.NeighborsAppend(buf[:0], center, 1)
	})
	if allocs != 0 {
		t.Errorf("NeighborsAppend with warm buffer allocates %.1f/op, want 0", allocs)
	}
}

// TestSendScratchIsolation checks that reusing the medium's encode scratch
// across broadcasts cannot corrupt in-flight deliveries: two back-to-back
// sends of different messages must deliver their own payloads.
func TestSendScratchIsolation(t *testing.T) {
	k := sim.New(9)
	m := New(k, lossless()) // fixed delay: deliveries arrive in send order
	a := &stubNode{id: 1, pos: geo.Point{X: 0, Y: 0}}
	b := &stubNode{id: 2, pos: geo.Point{X: 10, Y: 0}}
	m.Attach(a)
	m.Attach(b)

	m.Send(1, &wire.Heartbeat{NID: 1, Epoch: 7})
	m.Send(1, &wire.Digest{NID: 1, CH: 1, Epoch: 7, Heard: []wire.NodeID{1, 2, 3}})
	k.Run()

	if len(b.received) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(b.received))
	}
	hb, ok := b.received[0].msg.(*wire.Heartbeat)
	if !ok || hb.NID != 1 || hb.Epoch != 7 {
		t.Errorf("first delivery corrupted: %+v", b.received[0].msg)
	}
	dg, ok := b.received[1].msg.(*wire.Digest)
	if !ok || dg.NID != 1 || !slices.Equal(dg.HeardIDs(), []wire.NodeID{1, 2, 3}) {
		t.Errorf("second delivery corrupted: %+v", b.received[1].msg)
	}
}
