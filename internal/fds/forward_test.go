package fds

import (
	"slices"
	"testing"
	"time"

	"clusterfds/internal/cluster"
	"clusterfds/internal/geo"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// fwdCapture is a bare protocol that deep-copies every ForwardedUpdate its
// host receives (a delivered message dies with the handler).
type fwdCapture struct{ got []wire.ForwardedUpdate }

func (*fwdCapture) Start(*node.Host) {}

func (c *fwdCapture) Handle(_ *node.Host, m wire.Message, _ wire.NodeID) {
	if fu, ok := m.(*wire.ForwardedUpdate); ok {
		u := &fu.Update
		c.got = append(c.got, wire.ForwardedUpdate{
			Forwarder: fu.Forwarder, Requester: fu.Requester,
			Update: wire.HealthUpdate{
				From: u.From, CH: u.CH, Epoch: u.Epoch, Takeover: u.Takeover,
				NewFailed: slices.Clone(u.NewFailed),
				AllFailed: slices.Clone(u.AllFailed),
				Rescinded: slices.Clone(u.Rescinded),
			},
		})
	}
}

// TestArmedForwardCarriesUpdateAsReceived pins what an armed peer-forward
// sends: the CH's update exactly as the forwarder first received it. Between
// arming and firing, the delivered message's decode buffers are reused and a
// deputy's takeover update arrives, which moves the forwarder's CH to the
// deputy. Neither may reach the ForwardedUpdate: it still speaks for the old
// CH, with the original failure lists and rescissions and no takeover flag.
func TestArmedForwardCarriesUpdateAsReceived(t *testing.T) {
	members := []wire.NodeID{1, 2, 3, 4, 5, 6}
	k := sim.New(7)
	m := radio.New(k, radio.Defaults(0))
	h := node.New(k, m, 3, geo.Point{})
	cl := cluster.New(cluster.DefaultConfig())
	cl.InstallStaticView(1, members, []wire.NodeID{2}, 3)
	f := New(DefaultConfig(cluster.DefaultTiming()), cl)
	h.Use(cl)
	h.Use(f)
	h.Boot()
	requester := node.New(k, m, 5, geo.Point{X: 1})
	capture := &fwdCapture{}
	requester.Use(capture)
	requester.Boot()
	k.RunUntil(0)

	delivered := &wire.HealthUpdate{
		From: 1, CH: 1, Epoch: 0,
		NewFailed: []wire.NodeID{6},
		AllFailed: []wire.NodeID{6, 9},
		Rescinded: []wire.Rescission{{Node: 4, Epoch: 0}},
	}
	f.Handle(h, delivered, 1)
	f.Handle(h, &wire.ForwardRequest{NID: 5, Epoch: 0}, 5)
	if n := f.armedForwards(); n != 1 {
		t.Fatalf("%d forwards armed, want 1", n)
	}
	// The receiver's decode scratch is reused for the next datagram.
	delivered.NewFailed[0], delivered.AllFailed[1], delivered.Rescinded[0].Node = 99, 98, 97

	wait := f.forwardWait()
	k.RunUntil(wait / 2)
	f.Handle(h, &wire.HealthUpdate{
		From: 2, CH: 1, Epoch: 0, Takeover: true,
		NewFailed: []wire.NodeID{1},
		AllFailed: []wire.NodeID{1, 6, 9},
	}, 2)
	if got := cl.View().CH; got != 2 {
		t.Fatalf("forwarder's CH after the takeover = %v, want n2 (scenario broken)", got)
	}
	if !f.UpdateReceived() || f.armedForwards() != 1 {
		t.Fatalf("after the takeover: update received %v, %d forwards armed; want true, 1",
			f.UpdateReceived(), f.armedForwards())
	}
	k.RunUntil(wait + sim.Time(50*time.Millisecond))

	if len(capture.got) != 1 {
		t.Fatalf("requester received %d forwarded updates, want 1", len(capture.got))
	}
	got := capture.got[0]
	want := wire.ForwardedUpdate{
		Forwarder: 3, Requester: 5,
		Update: wire.HealthUpdate{
			From: 1, CH: 1, Epoch: 0,
			NewFailed: []wire.NodeID{6},
			AllFailed: []wire.NodeID{6, 9},
			Rescinded: []wire.Rescission{{Node: 4, Epoch: 0}},
		},
	}
	u, w := got.Update, want.Update
	if got.Forwarder != want.Forwarder || got.Requester != want.Requester ||
		u.From != w.From || u.CH != w.CH || u.Epoch != w.Epoch || u.Takeover != w.Takeover ||
		!slices.Equal(u.NewFailed, w.NewFailed) || !slices.Equal(u.AllFailed, w.AllFailed) ||
		!slices.Equal(u.Rescinded, w.Rescinded) {
		t.Fatalf("forwarded %+v,\nwant      %+v", got, want)
	}
}

// TestArmedForwardAllocatesNothing pins the responder's steady state: once a
// requester has been served, arming a forward for it again allocates nothing,
// whether the requester's ack cancels it or it fires. The requester's slot and
// its timer record are reused, and the update is read where the forwarder
// keeps it, not copied per arming.
func TestArmedForwardAllocatesNothing(t *testing.T) {
	f, h, k := newBenchProtocol(t, 3, []wire.NodeID{1, 2, 3, 4, 5, 6}, []wire.NodeID{2})
	f.Handle(h, &wire.HealthUpdate{
		From: 1, CH: 1, Epoch: 0,
		NewFailed: []wire.NodeID{6}, AllFailed: []wire.NodeID{6},
	}, 1)

	req := &wire.ForwardRequest{NID: 5, Epoch: 0}
	ack := &wire.ForwardAck{NID: 5, Epoch: 0}
	wait := f.forwardWait() + sim.Time(time.Millisecond)
	serve := func() {
		// Acked: the canceled event is collected once the clock passes it.
		f.Handle(h, req, 5)
		f.Handle(h, ack, 5)
		k.RunUntil(k.Now() + wait)
		// Unanswered: the forward fires.
		f.Handle(h, req, 5)
		if f.armedForwards() != 1 {
			t.Fatal("request did not arm a forward")
		}
		k.RunUntil(k.Now() + wait)
		if f.armedForwards() != 0 {
			t.Fatal("armed forward did not fire")
		}
	}
	serve() // the first request for 5 creates its slot
	// 20 more rounds stay inside epoch 0 (10 s), so the update stays current.
	if n := testing.AllocsPerRun(20, serve); n != 0 {
		t.Errorf("a canceled and a fired forward allocate %v times, want 0", n)
	}
}

// TestForwardSlotsFollowArmedForwards pins the responder's memory to what is
// in flight: a member that answers one requester per epoch, a different one
// each epoch, holds as many slots as its busiest epoch armed, not one per
// requester it has ever served.
func TestForwardSlotsFollowArmedForwards(t *testing.T) {
	const epochs = 12
	members := []wire.NodeID{1, 2, 3}
	for i := 0; i < epochs; i++ {
		members = append(members, wire.NodeID(4+i))
	}
	f, h, k := newBenchProtocol(t, 3, members, []wire.NodeID{2})
	timing := cluster.DefaultTiming()
	for e := wire.Epoch(0); e < epochs; e++ {
		k.RunUntil(timing.EpochStart(e))
		if !f.Active() || f.Epoch() != e {
			t.Fatalf("epoch %d: active %v at epoch %d (scenario broken)", e, f.Active(), f.Epoch())
		}
		f.Handle(h, &wire.HealthUpdate{From: 1, CH: 1, Epoch: e}, 1)
		requester := wire.NodeID(4 + e)
		f.Handle(h, &wire.ForwardRequest{NID: requester, Epoch: e}, requester)
		if held, armed := f.ForwardSlots(); armed != 1 || held != 1 {
			t.Fatalf("epoch %d: %d slots held, %d armed; want 1 and 1", e, held, armed)
		}
	}
	k.RunUntil(timing.EpochStart(epochs))
	if held, armed := f.ForwardSlots(); held != 1 || armed != 0 {
		t.Errorf("after %d epochs of one requester each: %d slots held, %d armed; want 1 and 0",
			epochs, held, armed)
	}
}
