package par

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// buildAndRun runs the canonical determinism scenario: 200 hosts, a crash
// wave at epoch 3, eight epochs total.
func buildAndRun(t *testing.T, workers, strips int) (*Engine, string, []wire.NodeID) {
	t.Helper()
	e := Build(Config{
		Seed: 42, Nodes: 200, FieldSide: 700, LossProb: 0.05,
		Strips: strips, Workers: workers, CollectTrace: true,
	})
	e.RunEpochs(3)
	victims := e.CrashRandomAt(e.Now()+sim.Time(1e9), 5)
	e.RunEpochs(8)
	return e, e.TraceHash(), victims
}

// TestWorkerCountInvariance is the engine's core contract: the trace hash,
// the victim picks, and the message tallies are bit-identical at every
// worker count.
func TestWorkerCountInvariance(t *testing.T) {
	e1, h1, v1 := buildAndRun(t, 1, 0)
	for _, workers := range []int{2, 4, 7} {
		e, h, v := buildAndRun(t, workers, 0)
		if h != h1 {
			t.Fatalf("workers=%d trace hash %s != workers=1 hash %s", workers, h, h1)
		}
		if len(v) != len(v1) {
			t.Fatalf("workers=%d victim count %d != %d", workers, len(v), len(v1))
		}
		for i := range v {
			if v[i] != v1[i] {
				t.Fatalf("workers=%d victims %v != %v", workers, v, v1)
			}
		}
		if e.Sends() != e1.Sends() || e.Deliveries() != e1.Deliveries() {
			t.Fatalf("workers=%d tallies (%d,%d) != (%d,%d)",
				workers, e.Sends(), e.Deliveries(), e1.Sends(), e1.Deliveries())
		}
	}
}

// TestCrashesAreDetected checks the stack actually runs: after five epochs,
// most operational hosts know about a wave of crashes.
func TestCrashesAreDetected(t *testing.T) {
	e, _, victims := buildAndRun(t, 4, 0)
	if len(victims) != 5 {
		t.Fatalf("expected 5 victims, got %v", victims)
	}
	total, reached := 0, 0
	for _, v := range victims {
		aware, operational := e.Completeness(v)
		if operational == 0 {
			t.Fatalf("no operational hosts")
		}
		total++
		if aware > operational/2 {
			reached++
		}
	}
	if reached < 3 {
		t.Fatalf("only %d/%d victims detected by a majority", reached, total)
	}
}

// TestCrashRandomAtNegativeCountPicksNobody pins that a negative count
// schedules no crash, as in the serial world, instead of slicing out of
// range.
func TestCrashRandomAtNegativeCountPicksNobody(t *testing.T) {
	e := Build(Config{Seed: 1, Nodes: 20, FieldSide: 200, Strips: 2})
	if picked := e.CrashRandomAt(e.Now()+sim.Time(1e9), -1); len(picked) != 0 {
		t.Fatalf("CrashRandomAt(-1) picked %v, want nobody", picked)
	}
	e.RunEpochs(1)
	if ops := e.Operational(); len(ops) != 20 {
		t.Errorf("%d hosts operational after CrashRandomAt(-1), want all 20", len(ops))
	}
}

// TestStripCountChangesAreExplicit documents that Strips (unlike Workers) is
// part of the configuration: different partitions are different timelines.
func TestStripCountChangesAreExplicit(t *testing.T) {
	_, h1, _ := buildAndRun(t, 2, 2)
	_, h4, _ := buildAndRun(t, 2, 4)
	if h1 == h4 {
		t.Log("note: strip counts 2 and 4 happened to agree; not a failure")
	}
}

// TestWindowInvariant is the twin of shard.TestWindowInvariant: an honest
// multi-strip run never hands the barrier a cross-strip delivery dated inside
// the window it just closed, and a delivery that does violate the lookahead
// panics with the offending (at, window end) instead of being scheduled
// "now", which would silently reorder the run.
func TestWindowInvariant(t *testing.T) {
	e := Build(Config{Seed: 42, Nodes: 200, FieldSide: 700, LossProb: 0.05, Strips: 4, Workers: 2})
	e.RunEpochs(2) // panics on any invariant violation
	if e.Deliveries() == 0 {
		t.Fatal("run delivered nothing; the barrier was never exercised")
	}

	end := e.Now()
	e.strips[0].out[1] = append(e.strips[0].out[1], crossEntry{at: end - 1, to: 0, from: 1})
	defer func() {
		want := fmt.Sprintf("cross-strip delivery at %d inside window ending %d", end-1, end)
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("mergeOutboxes recovered %v, want a panic containing %q", r, want)
		}
	}()
	e.mergeOutboxes(end)
}

// recorder is a one-protocol stack that keeps a copy of every message its
// host is handed (the original is scratch-backed) and runs a hook from
// inside the delivery.
type recorder struct {
	got      []reception
	onHandle func(h *node.Host, m wire.Message)
}

type reception struct {
	msg  wire.Message
	from wire.NodeID
}

func (r *recorder) Start(*node.Host) {}

func (r *recorder) Handle(h *node.Host, m wire.Message, from wire.NodeID) {
	r.got = append(r.got, reception{wire.Clone(m), from})
	if r.onHandle != nil {
		r.onHandle(h, m)
	}
}

// TestSendFromLastLanding is the twin of radio.TestSendFromLastReception:
// the receiver of a flight's LAST landing answers from inside Deliver. The
// flight is still the strip's at that point — recycled only once the delivery
// has returned — so the answer must draw a flight of its own and both
// messages must arrive intact.
func TestSendFromLastLanding(t *testing.T) {
	// Three hosts within range of each other on one lossless strip; the
	// production stacks are crashed and their rows' hosts replaced by
	// recorders.
	e := Build(Config{Seed: 1, Nodes: 3, FieldSide: 50, Strips: 1})
	st := &e.strips[0]
	recs := make([]*recorder, 3)
	for i := range recs {
		e.Host(wire.NodeID(i + 1)).Crash()
		recs[i] = &recorder{}
		h := node.New(&hostRuntime{k: st.k, rng: e.rngs[i]}, &stripPort{e: e}, wire.NodeID(i+1), e.pos[i])
		e.hosts[i] = h
		h.Use(recs[i])
		h.Boot()
	}
	heard := []wire.NodeID{1, 2, 3, 4, 5}
	landed, answerer := 0, wire.NoNode
	for _, r := range recs[1:] {
		r.onHandle = func(h *node.Host, m wire.Message) {
			if _, ok := m.(*wire.Heartbeat); !ok {
				return
			}
			if landed++; landed == 2 { // hosts 2 and 3 are the flight's only landings
				answerer = h.ID()
				h.Send(&wire.Digest{NID: h.ID(), CH: 1, Epoch: 9, Heard: heard})
			}
		}
	}
	e.send(0, 1, &wire.Heartbeat{NID: 1, Epoch: 9})
	st.k.RunUntil(sim.Time(time.Second))

	for i, r := range recs[1:] {
		first := r.got[0]
		if hb, ok := first.msg.(*wire.Heartbeat); !ok || first.from != 1 || hb.NID != 1 || hb.Epoch != 9 {
			t.Errorf("host %d: first reception %+v from %v, want host 1's heartbeat", i+2, first.msg, first.from)
		}
	}
	for i, r := range recs {
		if wire.NodeID(i+1) == answerer {
			continue
		}
		last := r.got[len(r.got)-1]
		d, ok := last.msg.(*wire.Digest)
		if !ok || last.from != answerer || d.NID != answerer || d.Epoch != 9 || !slices.Equal(d.HeardIDs(), heard) {
			t.Errorf("host %d: last reception %+v from %v, want host %v's digest", i+1, last.msg, last.from, answerer)
		}
	}
	if len(st.free) != 2 || st.free[0] == st.free[1] {
		t.Errorf("free list after the drain is %v, want 2 distinct flights", st.free)
	}
}

// TestSendDrawsIgnoreReceiverState pins the sender-side randomness rule
// (DESIGN.md §9): a send draws loss and delay for every roster neighbour,
// whatever state the receiver is in, so a crash elsewhere never moves the
// sender's stream. Two engines from one seed send the same heartbeat from
// host 1, one of them with receiver 3 crashed; host 1's next draw must agree.
func TestSendDrawsIgnoreReceiverState(t *testing.T) {
	next := func(crash bool) int64 {
		e := Build(Config{Seed: 1, Nodes: 3, FieldSide: 50, Strips: 1, LossProb: 0.5})
		if !slices.Contains(e.nbList[e.nbStart[0]:e.nbStart[1]], 2) {
			t.Fatalf("host 3 is not in host 1's roster %v", e.nbList[e.nbStart[0]:e.nbStart[1]])
		}
		if crash {
			e.Host(3).Crash()
		}
		e.send(0, 1, &wire.Heartbeat{NID: 1, Epoch: 9})
		return e.rngs[0].Int63()
	}
	if live, crashed := next(false), next(true); live != crashed {
		t.Errorf("host 1's next draw is %d with receiver 3 up and %d with it crashed: the send drew on receiver state", live, crashed)
	}
}

// TestBuildRejectsInvalidMedium pins that the strip engine refuses a medium
// the serial world refuses, with the same message: a loss probability
// outside [0,1] is a configuration error, not a run.
func TestBuildRejectsInvalidMedium(t *testing.T) {
	for _, p := range []float64{1.5, -0.5} {
		func() {
			want := fmt.Sprintf("radio: loss probability %v outside [0,1]", p)
			defer func() {
				if r := recover(); r == nil || fmt.Sprint(r) != want {
					t.Errorf("Build with LossProb %v recovered %v, want a panic %q", p, r, want)
				}
			}()
			Build(Config{Seed: 1, Nodes: 5, FieldSide: 100, LossProb: p})
		}()
	}
}

// canonicalHash is buildAndRun's trace hash, the same at every worker count.
// TestBlocksOutliveTheirReaders compares against it rather than against a
// second run, which a late read would corrupt alike.
const canonicalHash = "fbe588e3e5b03a867341cc509a86a4825c10dc5fe94617d80bafc29a600dde84"

// TestBlocksOutliveTheirReaders is the check on the blocks' reuse rule
// (DESIGN.md §12): a block is reused only at a barrier past the last instant
// a reader of it is due. Every pool zeroes each block as it is released, so
// a delivery that reads a payload, a cross entry or a run item after its
// block's release decodes zeros and panics, or lands elsewhere and moves the
// trace hash; either fails here. One worker, so that a panic surfaces on the
// test's goroutine.
func TestBlocksOutliveTheirReaders(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("a delivery read a released block: %v", r)
		}
	}()
	e, got, _ := buildAndRun(t, 1, 0)
	if got != canonicalHash {
		t.Fatalf("trace hash with released blocks zeroed is %s, want %s", got, canonicalHash)
	}
	for s := range e.strips {
		st := &e.strips[s]
		_, enc := st.enc.Counts()
		_, items := st.items.Counts()
		_, cross := st.cross.Counts()
		if enc == 0 || items == 0 || cross == 0 {
			t.Fatalf("strip %d released %d payload, %d item and %d cross blocks; every pool must release some for the check to see anything",
				s, enc, items, cross)
		}
	}
}
