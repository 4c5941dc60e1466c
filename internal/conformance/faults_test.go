package conformance

import (
	"math/rand"
	"testing"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// faultRun assembles a full stack, every host on its own port of a medium
// that every host hears (all sit at one point), with the given loss and
// delay bound; dup > 0 duplicates sends (see dupTransport). It crashes one
// host and returns the per-host FDS protocols for assertions.
// Deterministic: everything derives from the seed.
func faultRun(t *testing.T, seed int64, params radio.Params, dup float64, nodes int, crash wire.NodeID, crashAt sim.Time, epochs int) map[wire.NodeID]*fds.Protocol {
	t.Helper()
	k := sim.New(seed)
	m := radio.New(k, params)
	timing := cluster.DefaultTiming()
	fdss := make(map[wire.NodeID]*fds.Protocol, nodes)
	hosts := make([]*node.Host, 0, nodes)
	for i := 1; i <= nodes; i++ {
		id := wire.NodeID(i)
		var net transport.Transport = m.Link()
		if dup > 0 {
			net = &dupTransport{Transport: net, rng: k.Rand(), p: dup}
		}
		h := node.New(k, net, id, geo.Point{})
		fdss[id] = intercluster.Install(h, fds.DefaultConfig(timing), intercluster.DefaultConfig(timing)).FDS
		hosts = append(hosts, h)
	}
	for _, h := range hosts {
		h.Boot()
	}
	k.At(crashAt, hosts[crash-1].Crash)
	k.RunUntil(sim.Time(epochs)*timing.Interval + timing.Interval/2)
	return fdss
}

// dupTransport models datagram duplication: with probability p (drawn from
// the kernel's stream) it sends each message a second time, so every
// receiver gets a second copy with its own loss and delay draws. With p = 1
// and no loss, every receiver gets each message exactly twice.
type dupTransport struct {
	transport.Transport
	rng *rand.Rand
	p   float64
}

func (d *dupTransport) Send(from wire.NodeID, m wire.Message) {
	d.Transport.Send(from, m)
	if d.rng.Float64() < d.p {
		d.Transport.Send(from, m)
	}
}

// TestFaultyTransportDoesNotWedgeProtocol drives the stack through a medium
// that drops, duplicates, AND reorders datagrams (high loss, 20% dup, a
// delay window wider than a round, so a dup or straggler can land after
// later messages) and asserts the paper's guarantees still hold:
//
//   - liveness: every survivor's FDS keeps executing epochs to the end;
//   - detection: every survivor learns of the crashed host;
//   - bounded inaccuracy: false suspicions are allowed (the paper's
//     accuracy is probabilistic, and at 20% loss a rescission can itself
//     be lost), but they must stay within bounds — at most one live host
//     may end the run suspected, and that host must itself remain live
//     (a false detection ejects it from the cluster; it must not wedge it).
func TestFaultyTransportDoesNotWedgeProtocol(t *testing.T) {
	const (
		nodes    = 8
		epochs   = 6
		crashed  = wire.NodeID(5)
		phi      = sim.Time(10 * 1e9)
		finalMin = wire.Epoch(epochs - 1)
	)
	params := radio.Defaults(0.20)
	params.MaxDelay = 30e6 // 30 ms > Thop: stragglers cross round boundaries
	for _, seed := range []int64{1, 3, 11} {
		fdss := faultRun(t, seed, params, 0.20, nodes, crashed, sim.Time(2*phi+phi/3), epochs)
		victims := make(map[wire.NodeID]bool)
		for id, f := range fdss {
			if id == crashed {
				continue
			}
			if f.Epoch() < finalMin {
				t.Errorf("seed %d: node %v wedged at epoch %v (want >= %v)", seed, id, f.Epoch(), finalMin)
			}
			if !f.IsSuspected(crashed) {
				t.Errorf("seed %d: node %v never detected crashed node %v", seed, id, crashed)
			}
			for other := wire.NodeID(1); other <= nodes; other++ {
				if other != id && other != crashed && f.IsSuspected(other) {
					victims[other] = true
				}
			}
		}
		if len(victims) > 1 {
			t.Errorf("seed %d: %d live hosts end the run falsely suspected (want <= 1): %v", seed, len(victims), victims)
		}
		for v := range victims {
			if fdss[v].Epoch() < finalMin {
				t.Errorf("seed %d: falsely suspected node %v wedged at epoch %v", seed, v, fdss[v].Epoch())
			}
		}
	}
}

// TestDuplicatedDeliveriesAreIdempotent pins that duplication alone (no
// loss at all, so every message arrives exactly twice) leaves the protocol
// in a correct state — received-twice must be indistinguishable from
// received-once at the state-machine level.
func TestDuplicatedDeliveriesAreIdempotent(t *testing.T) {
	const nodes, epochs = 6, 4
	fdss := faultRun(t, 5, radio.Defaults(0), 1.0, nodes, 2, sim.Time(15*1e9), epochs)
	for id, f := range fdss {
		if id == 2 {
			continue
		}
		if f.Epoch() < wire.Epoch(epochs-1) {
			t.Errorf("node %v wedged at epoch %v under duplication", id, f.Epoch())
		}
		if !f.IsSuspected(2) {
			t.Errorf("node %v missed the crash under duplication", id)
		}
		for other := wire.NodeID(1); other <= nodes; other++ {
			if other != id && other != 2 && f.IsSuspected(other) {
				t.Errorf("node %v falsely suspects %v under duplication", id, other)
			}
		}
	}
}

// TestExtremeLossStillLive pins liveness (epochs keep executing) even when
// the channel drops half of all datagrams: the FDS may suspect and rescind,
// but the epoch schedule is clock-driven and must never stall.
func TestExtremeLossStillLive(t *testing.T) {
	const nodes, epochs = 6, 5
	fdss := faultRun(t, 9, radio.Defaults(0.50), 0, nodes, 3, sim.Time(25*1e9), epochs)
	for id, f := range fdss {
		if id == 3 {
			continue
		}
		if f.Epoch() < wire.Epoch(epochs-1) {
			t.Errorf("node %v wedged at epoch %v under 50%% loss", id, f.Epoch())
		}
	}
}
