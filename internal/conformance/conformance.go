// Package conformance is the differential sim-vs-live harness: it replays
// one scripted scenario through two independent Transport backends — the
// simulated radio medium (internal/radio), and one transport.LinkTransport
// per host (the transport cmd/fdsd runs) over the deterministic
// transport.Mesh fabric — and asserts that the protocol stack behaved
// identically.
//
// "Identically" is checked at three levels, strongest first:
//
//  1. the full trace event sequence (every send, delivery, loss, crash,
//     election, detection, takeover — with timestamps), which pins the
//     per-host state-machine transition order;
//  2. the global sequence of emitted messages as wire bytes, which pins
//     that both backends carried byte-identical traffic;
//  3. the final protocol state of every host (FDS epoch and failed set,
//     cluster role and membership) plus its exact energy spend.
//
// The comparison is exact, not statistical: both backends consume the same
// seeded kernel, and the mesh mirrors the radio's per-receiver randomness
// draw order (see transport.Mesh). The scenario keeps every host inside one
// radio grid cell of a 100 m-range medium, so the radio's receiver
// iteration order (grid insertion order) coincides with the mesh's join
// order and the unit-disk geometry never filters anyone out — making the
// two backends' observable behaviour equal by construction, which is
// exactly the property this suite turns into a machine check for every
// future PR.
package conformance

import (
	"fmt"
	"math/rand"
	"slices"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// fieldSide bounds host placement. 60 m with a 100 m radio range keeps
// every pair within range (diagonal ~85 m) and every host inside the radio
// grid's origin cell, so receiver order matches mesh join order.
const fieldSide = 60.0

// Crash schedules one fail-stop.
type Crash struct {
	Node wire.NodeID
	At   sim.Time
}

// Scenario is one scripted run, replayable on either backend.
type Scenario struct {
	// Seed seeds the kernel (and, xored, the placement source).
	Seed int64
	// Nodes is the host count; NIDs are 1..Nodes, attached in order.
	Nodes int
	// Loss is the per-receiver loss probability on both backends.
	Loss float64
	// Epochs is how many heartbeat intervals to run (plus half an interval
	// of drain).
	Epochs int
	// Crashes are the scripted fail-stops.
	Crashes []Crash
	// DupProb, if nonzero, enables datagram duplication on the mesh
	// backend. Conformance scenarios leave it zero (the radio cannot
	// duplicate); the transport-fault tests set it.
	DupProb float64
	// MaxDelay, if nonzero, overrides the delivery-delay upper bound on
	// both backends (fault tests widen it to force reordering).
	MaxDelay sim.Time
}

// SendRecord is one emitted message: who sent it and the exact wire bytes.
type SendRecord struct {
	From  wire.NodeID
	Bytes []byte
}

// Result is everything a run exposes for comparison.
type Result struct {
	// Trace is the full event sequence (hosts and transport share one sink).
	Trace []trace.Event
	// Sends is the global emitted-message sequence as wire bytes.
	Sends []SendRecord
	// States holds one rendered protocol-state snapshot per host, NID order.
	States []string
	// Energy is each host's exact cumulative energy spend, NID order.
	Energy []float64
}

// recordingTransport interposes on Send to capture the wire bytes of every
// emitted message before handing it to the real backend. It works on any
// backend — that it can is the point of the Transport seam.
type recordingTransport struct {
	transport.Transport
	sends *[]SendRecord
}

func (r *recordingTransport) Send(from wire.NodeID, m wire.Message) {
	*r.sends = append(*r.sends, SendRecord{From: from, Bytes: wire.Encode(m)})
	r.Transport.Send(from, m)
}

// RunSim replays the scenario on the simulated radio medium.
func RunSim(sc Scenario) *Result {
	k := sim.New(sc.Seed)
	mem := trace.NewMemory()
	params := radio.Defaults(sc.Loss)
	if sc.MaxDelay > 0 {
		params.MaxDelay = sc.MaxDelay
	}
	m := radio.New(k, params, radio.WithTrace(mem))
	return run(sc, k, func(wire.NodeID) transport.Transport { return m }, mem, m.EnergySpent)
}

// RunMesh replays the scenario with every host bound to its own
// LinkTransport on the in-process mesh.
func RunMesh(sc Scenario) *Result {
	k := sim.New(sc.Seed)
	mem := trace.NewMemory()
	params := transport.DefaultMeshParams(sc.Loss)
	params.DupProb = sc.DupProb
	if sc.MaxDelay > 0 {
		params.MaxDelay = sc.MaxDelay
	}
	m := transport.NewMesh(k, params, transport.WithMeshTrace(mem))
	ports := make(map[wire.NodeID]*transport.LinkTransport, sc.Nodes)
	bind := func(id wire.NodeID) transport.Transport {
		ports[id] = m.Port(id)
		return ports[id]
	}
	return run(sc, k, bind, mem, func(id wire.NodeID) float64 { return ports[id].Meter().Spent(id) })
}

// run assembles the identical host stack, each host on the transport bind
// returns for it (called once per host, in NID order), and executes the
// script.
func run(sc Scenario, k *sim.Kernel, bind func(wire.NodeID) transport.Transport, mem *trace.Memory, spent func(wire.NodeID) float64) *Result {
	res := &Result{}

	// Placement draws from a private source so both backends consume the
	// kernel's stream identically; positions are still seed-dependent.
	placer := rand.New(rand.NewSource(sc.Seed ^ 0x51eDe7ec7))
	field := geo.NewRect(fieldSide, fieldSide)
	timing := cluster.DefaultTiming()

	hosts := make(map[wire.NodeID]*node.Host, sc.Nodes)
	cls := make(map[wire.NodeID]*cluster.Protocol, sc.Nodes)
	fdss := make(map[wire.NodeID]*fds.Protocol, sc.Nodes)
	for i := 1; i <= sc.Nodes; i++ {
		id := wire.NodeID(i)
		rt := &recordingTransport{Transport: bind(id), sends: &res.Sends}
		h := node.New(k, rt, id, geo.UniformInRect(placer, field), node.WithTrace(mem))
		cl := cluster.New(cluster.Config{Timing: timing})
		f := fds.New(fds.DefaultConfig(timing), cl)
		ic := intercluster.New(intercluster.DefaultConfig(timing), cl, f)
		h.Use(cl)
		h.Use(f)
		h.Use(ic)
		hosts[id], cls[id], fdss[id] = h, cl, f
	}
	for _, h := range sortedHosts(hosts) {
		h.Boot()
	}
	for _, c := range sc.Crashes {
		h, ok := hosts[c.Node]
		if !ok {
			panic(fmt.Sprintf("conformance: crash of unknown node %v", c.Node))
		}
		k.At(c.At, h.Crash)
	}

	k.RunUntil(sim.Time(sc.Epochs)*timing.Interval + timing.Interval/2)

	res.Trace = mem.Events()
	for i := 1; i <= sc.Nodes; i++ {
		id := wire.NodeID(i)
		res.States = append(res.States, renderState(id, fdss[id], cls[id]))
		res.Energy = append(res.Energy, spent(id))
	}
	return res
}

// sortedHosts returns the hosts in NID order (boot order must match on
// both backends).
func sortedHosts(hosts map[wire.NodeID]*node.Host) []*node.Host {
	ids := make([]wire.NodeID, 0, len(hosts))
	for id := range hosts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]*node.Host, len(ids))
	for i, id := range ids {
		out[i] = hosts[id]
	}
	return out
}

// renderState snapshots one host's protocol state as a canonical string.
func renderState(id wire.NodeID, f *fds.Protocol, cl *cluster.Protocol) string {
	v := cl.View()
	failed := append([]wire.NodeID(nil), f.KnownFailed()...)
	slices.Sort(failed)
	return fmt.Sprintf(
		"n%v epoch=%v active=%v updateReceived=%v failed=%v marked=%v ch=%v isCH=%v members=%v dchs=%v",
		id, f.Epoch(), f.Active(), f.UpdateReceived(), failed,
		v.Marked, v.CH, v.IsCH, v.Members, v.DCHs)
}

// Diff compares two results and returns "" if identical, otherwise a
// description of the first divergence at the strongest differing level.
func Diff(a, b *Result) string {
	if d := diffTrace(a.Trace, b.Trace); d != "" {
		return d
	}
	if d := diffSends(a.Sends, b.Sends); d != "" {
		return d
	}
	for i := range a.States {
		if i >= len(b.States) || a.States[i] != b.States[i] {
			return fmt.Sprintf("state[%d] differs:\n  a: %s\n  b: %s", i, a.States[i], at(b.States, i))
		}
	}
	if len(b.States) > len(a.States) {
		return fmt.Sprintf("b has %d extra host states", len(b.States)-len(a.States))
	}
	for i := range a.Energy {
		if i >= len(b.Energy) || a.Energy[i] != b.Energy[i] {
			return fmt.Sprintf("energy[n%d] differs: a=%v b=%v", i+1, a.Energy[i], b.Energy[i])
		}
	}
	return ""
}

func diffTrace(a, b []trace.Event) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("trace[%d] differs:\n  a: %v\n  b: %v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("trace length differs: a=%d b=%d (first extra: %v)",
			len(a), len(b), firstExtra(a, b, n))
	}
	return ""
}

func diffSends(a, b []SendRecord) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i].From != b[i].From || !slices.Equal(a[i].Bytes, b[i].Bytes) {
			return fmt.Sprintf("send[%d] differs: a={from %v, %d bytes % x} b={from %v, %d bytes % x}",
				i, a[i].From, len(a[i].Bytes), a[i].Bytes, b[i].From, len(b[i].Bytes), b[i].Bytes)
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("send count differs: a=%d b=%d", len(a), len(b))
	}
	return ""
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<missing>"
}

func firstExtra(a, b []trace.Event, n int) trace.Event {
	if len(a) > n {
		return a[n]
	}
	return b[n]
}
