// Package conformance is the differential struct-vs-byte-path harness: it
// replays one scripted scenario on the simulated radio medium
// (internal/radio) twice — once with every host attached to the medium
// directly (the struct path the simulator runs), once with every host on its
// own radio.Port, whose transport.LinkTransport is the transport cmd/fdsd
// runs (the byte path) — and asserts that the protocol stack behaved
// identically.
//
// "Identically" is checked at four levels, strongest first:
//
//  1. the full trace event sequence (every send, delivery, loss, crash,
//     election, detection, takeover — with timestamps), which pins the
//     per-host state-machine transition order;
//  2. the global sequence of emitted messages as wire bytes, which pins
//     that both paths carried byte-identical traffic;
//  3. the final protocol state of every host (FDS epoch and failed set,
//     cluster role and membership) plus its exact energy spend;
//  4. the medium's counters (tx, rx and drops per kind).
//
// The comparison is exact, not statistical: both runs consume the same
// seeded kernel, and the two paths share the medium's one fan-out (range
// query, loss and delay draws, drop events); they differ only in who
// encodes, meters, decodes and traces. Geometry is real, so a field wider
// than the radio range puts the inter-cluster tier (gateways, failure-report
// forwarding) under the same check as detection inside a cluster.
package conformance

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/node"
	"clusterfds/internal/par"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// Crash schedules one fail-stop.
type Crash struct {
	Node wire.NodeID
	At   sim.Time
}

// Scenario is one scripted run, replayable on either path.
type Scenario struct {
	// Seed seeds the kernel (and, xored, the placement source).
	Seed int64
	// Nodes is the host count; NIDs are 1..Nodes, attached in order.
	Nodes int
	// Side is the square field's edge in meters; hosts are placed uniformly
	// in it.
	Side float64
	// Loss is the per-receiver loss probability.
	Loss float64
	// Epochs is how many heartbeat intervals to run (plus half an interval
	// of drain).
	Epochs int
	// Crashes are the scripted fail-stops.
	Crashes []Crash
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
	// Counters is the medium's tally snapshot (radio.Medium.Counters).
	Counters map[string]int64
}

// recordingTransport interposes on Send to capture the wire bytes of every
// emitted message before handing it to the real transport. It works on any
// transport — that it can is the point of the Transport seam.
type recordingTransport struct {
	transport.Transport
	sends *[]SendRecord
}

func (r *recordingTransport) Send(from wire.NodeID, m wire.Message) {
	*r.sends = append(*r.sends, SendRecord{From: from, Bytes: wire.Encode(m)})
	r.Transport.Send(from, m)
}

// RunSim replays the scenario with every host attached to the medium
// directly.
func RunSim(sc Scenario) *Result {
	k, m, mem := newMedium(sc)
	return run(sc, k, m, mem, func(wire.NodeID) transport.Transport { return m }, m.EnergySpent)
}

// RunLinks replays the scenario with every host on its own port of the
// medium, so every message crosses the byte path: LinkTransport's encode,
// the medium's fan-out, LinkTransport's Inject.
func RunLinks(sc Scenario) *Result {
	k, m, mem := newMedium(sc)
	ports := make([]*radio.Port, 0, sc.Nodes) // NID order
	bind := func(wire.NodeID) transport.Transport {
		ports = append(ports, m.Link())
		return ports[len(ports)-1]
	}
	return run(sc, k, m, mem, bind, func(id wire.NodeID) float64 { return ports[id-1].Spent() })
}

// newMedium builds the scenario's kernel and traced medium.
func newMedium(sc Scenario) (*sim.Kernel, *radio.Medium, *trace.Memory) {
	k := sim.New(sc.Seed)
	mem := trace.NewMemory()
	return k, radio.New(k, radio.Defaults(sc.Loss), radio.WithTrace(mem)), mem
}

// run assembles the identical host stack, each host on the transport bind
// returns for it (called once per host, in NID order), and executes the
// script.
func run(sc Scenario, k *sim.Kernel, m *radio.Medium, mem *trace.Memory, bind func(wire.NodeID) transport.Transport, spent func(wire.NodeID) float64) *Result {
	res := &Result{}

	// Placement draws from a private source so both paths consume the
	// kernel's stream identically; positions are still seed-dependent.
	placer := rand.New(rand.NewSource(sc.Seed ^ 0x51eDe7ec7))
	field := geo.NewRect(sc.Side, sc.Side)
	timing := cluster.DefaultTiming()

	var hosts par.HostTable // NID order
	for i := 1; i <= sc.Nodes; i++ {
		id := wire.NodeID(i)
		rt := &recordingTransport{Transport: bind(id), sends: &res.Sends}
		h := node.New(k, rt, id, geo.UniformInRect(placer, field), node.WithTrace(mem))
		s := intercluster.Install(h, fds.DefaultConfig(timing), intercluster.DefaultConfig(timing))
		hosts.Attach(h, k, s.FDS, s)
	}
	for _, id := range hosts.NodeIDs() {
		hosts.Host(id).Boot()
	}
	for _, c := range sc.Crashes {
		hosts.CrashAt(c.At, c.Node)
	}

	k.RunUntil(sim.Time(sc.Epochs)*timing.Interval + timing.Interval/2)

	res.Trace = mem.Events()
	for i := 1; i <= sc.Nodes; i++ {
		id := wire.NodeID(i)
		res.States = append(res.States, renderState(id, hosts.FDS(id), hosts.Cluster(id)))
		res.Energy = append(res.Energy, spent(id))
	}
	res.Counters = m.Counters()
	return res
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
	if !maps.Equal(a.Counters, b.Counters) {
		return fmt.Sprintf("medium counters differ:\n  a: %v\n  b: %v", a.Counters, b.Counters)
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
