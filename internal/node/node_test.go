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

// TestTimerRearmsInPlace pins the timer handle's lifecycle: the zero value is
// disarmed, a timer fires once per arming, a canceled arming never fires,
// canceling twice returns the record once, and a crashed host's timer stays
// silent.
func TestTimerRearmsInPlace(t *testing.T) {
	k, _, hosts := newWorld(t, []geo.Point{{X: 0, Y: 0}})
	h := hosts[0]
	var tm Timer
	if tm.Active() {
		t.Fatal("zero Timer reads as armed")
	}
	tm.Cancel() // disarmed: a no-op
	fired := 0
	fn := func(arg any) { fired += *arg.(*int) }
	one, ten := 1, 10
	tm = h.AfterArg(sim.Time(time.Second), fn, &one)
	tm.Cancel()
	tm = h.AfterArg(sim.Time(time.Second), fn, &one)
	if !tm.Active() {
		t.Fatal("re-armed timer not active")
	}
	k.Run()
	if fired != 1 || tm.Active() {
		t.Fatalf("fired %d times, active %v after the run; want 1, false", fired, tm.Active())
	}
	tm.Cancel() // fired: a no-op

	// A second Cancel must not return the record again: two later timers
	// would then share it and one would run the other's callback.
	fired = 0
	tm = h.AfterArg(sim.Time(time.Second), fn, &one)
	tm.Cancel()
	tm.Cancel()
	h.AfterArg(sim.Time(time.Second), fn, &one)
	h.AfterArg(sim.Time(time.Second), fn, &ten)
	k.Run()
	if fired != 11 {
		t.Fatalf("two timers armed after a double Cancel added %d, want 11", fired)
	}

	fired = 0
	tm = h.AfterArg(sim.Time(time.Second), fn, &one)
	h.After(sim.Time(time.Second), func() { fired++ })
	h.Crash()
	k.Run()
	if fired != 0 {
		t.Error("crashed host's timer fired")
	}
	if tm.Active() {
		t.Error("crash-silenced timer still reads as armed")
	}
}

// TestCanceledTimerReturnsItsRecord pins the pool's steady state: once the
// host's pool has grown to its working size, arming, canceling and re-arming
// a timer, and arming one that fires, allocate nothing through either After
// or AfterArg. Each run cancels more timers than a pool block holds, so a
// canceled timer that dropped its record would show as an allocation.
func TestCanceledTimerReturnsItsRecord(t *testing.T) {
	k, _, hosts := newWorld(t, []geo.Point{{X: 0, Y: 0}})
	h := hosts[0]
	fired := 0
	fn := func() { fired++ }
	afn := func(any) { fired++ }
	var arg int
	cycle := func() {
		for i := 0; i < 40; i++ {
			h.After(sim.Time(time.Second), fn).Cancel()
			h.AfterArg(sim.Time(time.Second), afn, &arg).Cancel()
		}
		tm := h.After(sim.Time(time.Second), fn)
		tm.Cancel()
		h.After(sim.Time(time.Second), fn)
		ta := h.AfterArg(sim.Time(time.Second), afn, &arg)
		ta.Cancel()
		h.AfterArg(sim.Time(time.Second), afn, &arg)
		k.Run()
	}
	cycle() // warm-up: the pools grow to their working size
	fired = 0
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("arm/cancel/re-arm and arm/fire cycles allocate %v times, want 0", n)
	}
	if fired != 2*21 {
		t.Errorf("%d timers fired over 21 cycles, want %d", fired, 2*21)
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
