package conformance

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

const phi = sim.Time(10 * 1e9) // DefaultTiming Interval

// seeds are the seeds every scenario is compared on.
var seeds = []int64{1, 2, 7, 42}

// base is the small scripted scenario: a dozen hosts in a 60 m square, so
// everyone hears everyone and one cluster forms, realistic loss, five
// epochs, and two fail-stops — one mid-epoch, one exactly on an epoch
// boundary (the boot/crash alignment the paper's fail-stop assumption
// singles out).
func base(seed int64) Scenario {
	return Scenario{
		Seed:   seed,
		Nodes:  12,
		Side:   60,
		Loss:   0.05,
		Epochs: 5,
		Crashes: []Crash{
			{Node: 3, At: 2*phi + phi/2},
			{Node: 7, At: 3 * phi},
		},
	}
}

// field is the reference field's shape: 600 hosts on 1,200 m, p = 0.1,
// eight epochs, six fail-stops in the middle of epoch 3. About 90 clusters
// form, so gateways register and failure reports cross cluster borders.
func field(seed int64) Scenario {
	sc := Scenario{Seed: seed, Nodes: 600, Side: 1200, Loss: 0.1, Epochs: 8}
	for _, id := range []wire.NodeID{50, 150, 250, 350, 450, 550} {
		sc.Crashes = append(sc.Crashes, Crash{Node: id, At: 3*phi + phi/2})
	}
	return sc
}

// scenarios names the scenario shapes the suite replays.
var scenarios = []struct {
	name string
	of   func(seed int64) Scenario
}{
	{"12hosts", base},
	{"field600", field},
}

// TestStructAndBytePathsAreEquivalent is the headline differential check:
// with every host attached to the medium directly, and with every host on
// its own port (LinkTransport's encode and Inject around the same fan-out),
// the run must produce the identical trace event sequence, the identical
// global wire-byte message sequence, the identical final protocol state and
// energy spend on every host, and the identical medium counters — for
// several seeds, in one cluster and across ~90.
func TestStructAndBytePathsAreEquivalent(t *testing.T) {
	for _, s := range scenarios {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", s.name, seed), func(t *testing.T) {
				t.Parallel()
				sc := s.of(seed)
				if d := Diff(RunSim(sc), RunLinks(sc)); d != "" {
					t.Fatalf("struct and byte paths diverge:\n%s", d)
				}
			})
		}
	}
}

// TestScenarioIsNonTrivial guards the harness against vacuity: each
// scenario must actually exercise the stack — traffic flows, losses happen,
// clusters form, and every crashed host is detected. The field must elect at
// least 90 clusterheads and send every kind of the cluster stack, the
// inter-cluster ones included.
func TestScenarioIsNonTrivial(t *testing.T) {
	for _, c := range []struct {
		sc     Scenario
		minCHs int
		kinds  []wire.Kind // each must be sent at least once
	}{
		{base(1), 1, nil},
		{field(1), 90, []wire.Kind{
			wire.KindHeartbeat, wire.KindDigest, wire.KindHealthUpdate,
			wire.KindForwardRequest, wire.KindForwardedUpdate, wire.KindForwardAck,
			wire.KindFailureReport, wire.KindCHDeclare, wire.KindClusterAnnounce,
			wire.KindGWRegister,
		}},
	} {
		res := RunSim(c.sc)
		if len(res.Sends) == 0 {
			t.Fatalf("%d hosts: scenario produced no traffic", c.sc.Nodes)
		}
		counts := map[trace.EventType]int{}
		for _, e := range res.Trace {
			counts[e.Type]++
		}
		for _, want := range []trace.EventType{
			trace.TypeSend, trace.TypeDeliver, trace.TypeDrop, trace.TypeCrash,
			trace.TypeCHElected, trace.TypeDetect,
		} {
			if counts[want] == 0 {
				t.Errorf("%d hosts: scenario produced no %q events", c.sc.Nodes, want)
			}
		}
		if n := counts[trace.TypeCHElected]; n < c.minCHs {
			t.Errorf("%d hosts: %d clusterheads elected, want >= %d", c.sc.Nodes, n, c.minCHs)
		}
		sent := map[wire.Kind]int{}
		for _, s := range res.Sends {
			sent[wire.Kind(s.Bytes[0])]++
		}
		t.Logf("%d hosts: %d sends, %d clusterheads elected, %d failure-report, %d gw-register",
			c.sc.Nodes, len(res.Sends), counts[trace.TypeCHElected], sent[wire.KindFailureReport], sent[wire.KindGWRegister])
		for _, k := range c.kinds {
			if sent[k] == 0 {
				t.Errorf("%d hosts: no %s sent", c.sc.Nodes, k)
			}
		}
		// Every crashed host must end up in some survivor's failed set.
		crashed := make([]wire.NodeID, len(c.sc.Crashes))
		for i, cr := range c.sc.Crashes {
			crashed[i] = cr.Node
		}
		for _, victim := range crashed {
			found := false
			for i, st := range res.States {
				if !slices.Contains(crashed, wire.NodeID(i+1)) &&
					slices.Contains(strings.Fields(failedList(st)), victim.String()) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%d hosts: no survivor detected crashed node %v", c.sc.Nodes, victim)
			}
		}
	}
}

// failedList extracts the "failed=[...]" list from a rendered state.
func failedList(st string) string {
	_, rest, ok := strings.Cut(st, "failed=[")
	if !ok {
		return ""
	}
	list, _, _ := strings.Cut(rest, "]")
	return list
}

// TestDiffDetectsDivergence is the negative control: the comparator must
// actually fire when the two runs differ, otherwise the equivalence test
// proves nothing.
func TestDiffDetectsDivergence(t *testing.T) {
	sc := base(1)
	ref := RunSim(sc)

	diffLoss := sc
	diffLoss.Loss = 0.10
	if d := Diff(ref, RunLinks(diffLoss)); d == "" {
		t.Error("comparator missed a loss-probability divergence")
	}

	diffSeed := sc
	diffSeed.Seed = 99
	if d := Diff(ref, RunLinks(diffSeed)); d == "" {
		t.Error("comparator missed a seed divergence")
	}

	diffCrash := sc
	diffCrash.Crashes = diffCrash.Crashes[:1]
	if d := Diff(ref, RunLinks(diffCrash)); d == "" {
		t.Error("comparator missed a crash-script divergence")
	}

	// Counters are the last level compared: equal everywhere else, they
	// alone must still tell two runs apart.
	same := RunLinks(sc)
	same.Counters["rx:heartbeat"]++
	if d := Diff(ref, same); !strings.Contains(d, "counters") {
		t.Errorf("comparator missed a counter divergence (got %q)", d)
	}
}

// TestRecorderCapturesDecodableBytes pins that the recorded send stream is
// real wire traffic: every recorded payload decodes, and round-trips.
func TestRecorderCapturesDecodableBytes(t *testing.T) {
	res := RunSim(base(2))
	for i, s := range res.Sends {
		m, err := wire.Decode(s.Bytes)
		if err != nil {
			t.Fatalf("send[%d] from %v does not decode: %v", i, s.From, err)
		}
		if got := wire.Encode(m); string(got) != string(s.Bytes) {
			t.Fatalf("send[%d] does not round-trip", i)
		}
	}
}
