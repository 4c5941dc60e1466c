package node

import (
	"testing"
	"time"

	"clusterfds/internal/geo"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// echoProto replies to every heartbeat with its own, and records traffic.
type echoProto struct {
	started  int
	received []wire.Kind
	echo     bool
}

func (p *echoProto) Start(h *Host) { p.started++ }

func (p *echoProto) Handle(h *Host, m wire.Message, from wire.NodeID) {
	p.received = append(p.received, m.Kind())
	if p.echo && m.Kind() == wire.KindHeartbeat {
		h.Send(&wire.Digest{NID: h.ID(), Heard: []wire.NodeID{from}})
	}
}

func newWorld(t *testing.T, positions []geo.Point) (*sim.Kernel, *radio.Medium, []*Host) {
	t.Helper()
	k := sim.New(1)
	params := radio.Defaults(0)
	params.MinDelay, params.MaxDelay = sim.Time(time.Millisecond), sim.Time(time.Millisecond)
	m := radio.New(k, params)
	hosts := make([]*Host, len(positions))
	for i, pos := range positions {
		hosts[i] = New(k, m, wire.NodeID(i+1), pos)
	}
	return k, m, hosts
}

func TestProtocolDispatch(t *testing.T) {
	k, _, hosts := newWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	p1, p2 := &echoProto{}, &echoProto{echo: true}
	hosts[1].Use(p1)
	hosts[1].Use(p2)
	for _, h := range hosts {
		h.Boot()
	}
	if p1.started != 1 || p2.started != 1 {
		t.Fatal("protocols not started exactly once")
	}
	hosts[0].Send(&wire.Heartbeat{NID: 1})
	k.Run()
	if len(p1.received) != 1 || len(p2.received) != 1 {
		t.Fatalf("both protocols should see the message: %v / %v", p1.received, p2.received)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	k, _, hosts := newWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	sender := &echoProto{}
	responder := &echoProto{echo: true}
	hosts[0].Use(sender)
	hosts[1].Use(responder)
	for _, h := range hosts {
		h.Boot()
	}
	hosts[0].Send(&wire.Heartbeat{NID: 1})
	k.Run()
	if len(sender.received) != 1 || sender.received[0] != wire.KindDigest {
		t.Fatalf("sender received %v, want one digest", sender.received)
	}
}

func TestCrashStopsEverything(t *testing.T) {
	k, _, hosts := newWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	p := &echoProto{}
	hosts[1].Use(p)
	for _, h := range hosts {
		h.Boot()
	}
	timerFired := false
	hosts[1].After(sim.Time(time.Second), func() { timerFired = true })
	hosts[1].Crash()
	if !hosts[1].Crashed() || hosts[1].Operational() {
		t.Fatal("Crashed/Operational inconsistent")
	}
	hosts[0].Send(&wire.Heartbeat{NID: 1})
	hosts[1].Send(&wire.Heartbeat{NID: 2}) // crashed: must be silent
	k.Run()
	if len(p.received) != 0 {
		t.Error("crashed host processed a message")
	}
	if timerFired {
		t.Error("crashed host's timer fired")
	}
	hosts[1].Crash() // idempotent
}

func TestCrashDuringRun(t *testing.T) {
	k, _, hosts := newWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	p := &echoProto{}
	hosts[1].Use(p)
	for _, h := range hosts {
		h.Boot()
	}
	// Send at t=0; crash receiver at t=0.5ms, before the 1ms delivery.
	hosts[0].Send(&wire.Heartbeat{NID: 1})
	k.Schedule(sim.Time(500*time.Microsecond), func() { hosts[1].Crash() })
	k.Run()
	if len(p.received) != 0 {
		t.Error("message delivered to host that crashed in flight")
	}
}

func TestUseAfterBootPanics(t *testing.T) {
	_, _, hosts := newWorld(t, []geo.Point{{X: 0, Y: 0}})
	hosts[0].Boot()
	defer func() {
		if recover() == nil {
			t.Error("Use after Boot should panic")
		}
	}()
	hosts[0].Use(&echoProto{})
}

func TestBootIdempotent(t *testing.T) {
	_, _, hosts := newWorld(t, []geo.Point{{X: 0, Y: 0}})
	p := &echoProto{}
	hosts[0].Use(p)
	hosts[0].Boot()
	hosts[0].Boot()
	if p.started != 1 {
		t.Errorf("started %d times, want 1", p.started)
	}
}

func TestBootAfterCrashIsNoop(t *testing.T) {
	_, _, hosts := newWorld(t, []geo.Point{{X: 0, Y: 0}})
	p := &echoProto{}
	hosts[0].Use(p)
	hosts[0].Crash()
	hosts[0].Boot()
	if p.started != 0 {
		t.Error("crashed host booted protocols")
	}
}

func TestNeighborsAndEnergy(t *testing.T) {
	_, m, hosts := newWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 400, Y: 0}})
	nbrs := m.Neighbors(hosts[0].Pos(), hosts[0].ID())
	if len(nbrs) != 1 || nbrs[0] != 2 {
		t.Errorf("Neighbors = %v, want [2]", nbrs)
	}
	if hosts[0].Energy() <= 0 {
		t.Error("fresh host should have positive energy")
	}
}

func TestAfterFiresWhenAlive(t *testing.T) {
	k, _, hosts := newWorld(t, []geo.Point{{X: 0, Y: 0}})
	fired := false
	hosts[0].After(sim.Time(time.Second), func() { fired = true })
	k.Run()
	if !fired {
		t.Error("timer did not fire on live host")
	}
}

// TestTimerRearmsInPlace pins the owned timer's lifecycle: it fires once per
// arming, a canceled arming never fires and may be re-armed at once, arming
// allocates nothing, arming a pending timer panics, and a crashed host's
// timer stays silent like After's.
func TestTimerRearmsInPlace(t *testing.T) {
	k, _, hosts := newWorld(t, []geo.Point{{X: 0, Y: 0}})
	h := hosts[0]
	var tm Timer
	fired := 0
	fn := func(arg any) { fired += *arg.(*int) }
	one := 1
	if tm.Active() {
		t.Fatal("zero Timer reads as armed")
	}
	h.Arm(&tm, sim.Time(time.Second), fn, &one)
	tm.Cancel()
	h.Arm(&tm, sim.Time(time.Second), fn, &one)
	if !tm.Active() {
		t.Fatal("re-armed timer not active")
	}
	k.Run()
	if fired != 1 || tm.Active() {
		t.Fatalf("fired %d times, active %v after the run; want 1, false", fired, tm.Active())
	}
	if n := testing.AllocsPerRun(20, func() {
		h.Arm(&tm, sim.Time(time.Second), fn, &one)
		tm.Cancel()
		k.Run()
		h.Arm(&tm, sim.Time(time.Second), fn, &one)
		k.Run()
	}); n != 0 {
		t.Errorf("arming, canceling and firing allocate %v times, want 0", n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Arm on a pending timer did not panic")
			}
		}()
		h.Arm(&tm, sim.Time(time.Second), fn, &one)
		h.Arm(&tm, sim.Time(time.Second), fn, &one)
	}()
	fired = 0
	h.Crash()
	k.Run()
	if fired != 0 {
		t.Error("crashed host's timer fired")
	}
}

func TestMoveTo(t *testing.T) {
	_, m, hosts := newWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 500, Y: 0}})
	if len(m.Neighbors(hosts[0].Pos(), 1)) != 0 {
		t.Fatal("hosts should start out of range")
	}
	hosts[1].MoveTo(geo.Point{X: 50, Y: 0})
	if len(m.Neighbors(hosts[0].Pos(), 1)) != 1 {
		t.Error("MoveTo did not update the medium's index")
	}
}

func TestTraceOnCrash(t *testing.T) {
	k := sim.New(1)
	mem := trace.NewMemory()
	m := radio.New(k, radio.Defaults(0))
	h := New(k, m, 1, geo.Point{}, WithTrace(mem))
	h.Crash()
	if mem.Count(trace.TypeCrash) != 1 {
		t.Error("crash not traced")
	}
}
