package radio

import (
	"testing"
	"time"

	"clusterfds/internal/geo"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// portField attaches one stubNode per position, each through its own port.
func portField(k *sim.Kernel, params Params, positions []geo.Point) (*Medium, []*Port, []*stubNode) {
	m := New(k, params)
	ports := make([]*Port, len(positions))
	nodes := make([]*stubNode, len(positions))
	for i, pos := range positions {
		nodes[i] = &stubNode{id: wire.NodeID(i + 1), pos: pos}
		ports[i] = m.Link()
		ports[i].Attach(nodes[i])
	}
	return m, ports, nodes
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("no panic for %s", what)
		}
	}()
	fn()
}

func TestPortRejectsBadIDs(t *testing.T) {
	m := New(sim.New(1), lossless())
	m.Link().Attach(&stubNode{id: 1})
	m.Attach(&stubNode{id: 2})
	mustPanic(t, "NID 0", func() { m.Link().Attach(&stubNode{id: wire.NoNode}) })
	mustPanic(t, "a NID another port holds", func() { m.Link().Attach(&stubNode{id: 1}) })
	mustPanic(t, "a NID a direct host holds", func() { m.Link().Attach(&stubNode{id: 2}) })
}

// TestPortDeliversWithinDelayBounds sends from a port host to a port host
// and a direct host: every delivery lands within [MinDelay, MaxDelay], and
// the sender never hears itself.
func TestPortDeliversWithinDelayBounds(t *testing.T) {
	params := Defaults(0)
	k := sim.New(3)
	m := New(k, params)
	sender := &stubNode{id: 1}
	p := m.Link()
	p.Attach(sender)
	var viaPort, direct []sim.Time
	m.Link().Attach(&timeRecorder{stub: &stubNode{id: 2, pos: geo.Point{X: 10}}, k: k, times: &viaPort})
	m.Attach(&timeRecorder{stub: &stubNode{id: 3, pos: geo.Point{Y: 10}}, k: k, times: &direct})
	var sentAt []sim.Time
	for i := 0; i < 200; i++ {
		at := sim.Time(i) * sim.Time(time.Second)
		k.At(at, func() { p.Send(1, &wire.Heartbeat{NID: 1, Epoch: wire.Epoch(i)}) })
		sentAt = append(sentAt, at)
	}
	k.Run()
	for name, got := range map[string][]sim.Time{"port": viaPort, "direct": direct} {
		if len(got) != len(sentAt) {
			t.Fatalf("%s receiver got %d deliveries, want %d", name, len(got), len(sentAt))
		}
		for i, at := range got {
			if d := at - sentAt[i]; d < params.MinDelay || d > params.MaxDelay {
				t.Fatalf("%s delivery %d delay %v outside [%v, %v]", name, i, d, params.MinDelay, params.MaxDelay)
			}
		}
	}
	if len(sender.received) != 0 {
		t.Error("sender heard its own transmission")
	}
	if got := m.Received(wire.KindHeartbeat); got != 400 {
		t.Errorf("rx:heartbeat = %d, want 400", got)
	}
}

// TestPortOutOfRangeHearsNothing pins that a port host hears only what the
// medium's geometry lets it hear, and that its moves reach the medium.
func TestPortOutOfRangeHearsNothing(t *testing.T) {
	k := sim.New(1)
	m, ports, nodes := portField(k, lossless(), []geo.Point{{X: 0}, {X: 50}, {X: 350}})
	ports[0].Send(1, &wire.Heartbeat{NID: 1})
	k.Run()
	if len(nodes[1].received) != 1 {
		t.Errorf("in-range port host got %d deliveries, want 1", len(nodes[1].received))
	}
	if len(nodes[2].received) != 0 {
		t.Error("out-of-range port host heard the transmission")
	}
	if spent := ports[2].Spent(); spent != 0 {
		t.Errorf("out-of-range port host spent %v energy, want 0", spent)
	}
	if got := m.Received(wire.KindHeartbeat); got != 1 {
		t.Errorf("rx:heartbeat = %d, want 1", got)
	}

	// A port host that moves into range through its port hears the next one.
	old := nodes[2].pos
	nodes[2].pos = geo.Point{X: 90}
	ports[2].UpdatePos(3, old)
	ports[0].Send(1, &wire.Heartbeat{NID: 1})
	k.Run()
	if len(nodes[2].received) != 1 {
		t.Errorf("port host moved into range got %d deliveries, want 1", len(nodes[2].received))
	}
}

// TestPortSilencedSenderCounted pins that a silenced port sender is
// accounted as a silenced direct sender is: charged by its own
// LinkTransport, counted under tx-silenced-*, heard by nobody.
func TestPortSilencedSenderCounted(t *testing.T) {
	k := sim.New(1)
	m, ports, nodes := portField(k, lossless(), []geo.Point{{X: 0}, {X: 10}})
	m.Silence(1, true)
	msg := &wire.Heartbeat{NID: 1, Epoch: 1}
	ports[0].Send(1, msg)
	k.Run()
	c := m.Counters()
	if c["tx:heartbeat"] != 0 || c["tx-bytes"] != 0 {
		t.Errorf("silenced port send counted as heard: tx:heartbeat=%d tx-bytes=%d", c["tx:heartbeat"], c["tx-bytes"])
	}
	if c["drop:silenced"] != 1 || c["tx-silenced-msgs"] != 1 || c["tx-silenced-bytes"] != int64(msg.WireSize()) {
		t.Errorf("drop:silenced=%d tx-silenced-msgs=%d tx-silenced-bytes=%d, want 1, 1, %d",
			c["drop:silenced"], c["tx-silenced-msgs"], c["tx-silenced-bytes"], msg.WireSize())
	}
	if spent := ports[0].Spent(); spent <= 0 {
		t.Errorf("silenced port sender spent %v energy, want > 0", spent)
	}
	if len(nodes[1].received) != 0 {
		t.Error("silenced port host was heard")
	}
}

func TestBroadcastRejectsEmptyAndUnattached(t *testing.T) {
	k := sim.New(1)
	m, _, _ := portField(k, lossless(), []geo.Point{{X: 0}, {X: 10}})
	if err := m.Broadcast(1, nil); err == nil {
		t.Error("empty broadcast accepted")
	}
	if err := m.Broadcast(9, wire.Encode(&wire.Heartbeat{NID: 9})); err == nil {
		t.Error("broadcast from an unattached NID accepted")
	}
	if c := m.Counters(); len(c) != 0 {
		t.Errorf("rejected broadcasts moved counters: %v", c)
	}
}
