package intercluster

import (
	"slices"
	"strings"
	"testing"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// world is a field running the full stack: formation + FDS + forwarder.
type world struct {
	kernel *sim.Kernel
	medium *radio.Medium
	hosts  []*node.Host
	stacks []Stack
	timing cluster.Timing
	tracer *trace.Memory
}

func buildWorld(t *testing.T, seed int64, lossProb float64, cfg func(cluster.Timing) Config, positions []geo.Point) *world {
	t.Helper()
	tr := trace.NewMemory(trace.TypeReportForward, trace.TypeReportDeliver,
		trace.TypeRetransmit, trace.TypeBGWAssist, trace.TypeDetect)
	w := buildWorldTo(tr, seed, lossProb, cfg, positions)
	w.tracer = tr
	return w
}

// buildWorldTo builds the world with every host tracing to sink; trace.Nop
// turns tracing off, as a benchmark wants.
func buildWorldTo(sink trace.Sink, seed int64, lossProb float64, cfg func(cluster.Timing) Config, positions []geo.Point) *world {
	if cfg == nil {
		cfg = DefaultConfig
	}
	k := sim.New(seed)
	m := radio.New(k, radio.Defaults(lossProb))
	w := &world{kernel: k, medium: m, timing: cluster.DefaultTiming()}
	for i, pos := range positions {
		h := node.New(k, m, wire.NodeID(i+1), pos, node.WithTrace(sink))
		w.hosts = append(w.hosts, h)
		w.stacks = append(w.stacks, Install(h, fds.DefaultConfig(w.timing), cfg(w.timing)))
	}
	for _, h := range w.hosts {
		h.Boot()
	}
	return w
}

func (w *world) runUntilEpoch(e wire.Epoch) { w.kernel.RunUntil(w.timing.EpochStart(e)) }

func (w *world) crashAtEpoch(idx int, e wire.Epoch) {
	w.kernel.At(w.timing.EpochStart(e)+w.timing.Interval/2, func() { w.hosts[idx].Crash() })
}

// threeClusterChain lays out clusters A (around n1), B (around n2), and C
// (around n3), bridged by n6 (A-B) and n7 (B-C).
//
//	A: n1 @ (0,0), members n4 n5 n8 n9
//	B: n2 @ (150,0), members n10 n11
//	C: n3 @ (300,0), members n12 n13
//	bridges: n6 @ (75,0), n7 @ (225,0)
//
// A's members sit where they stay within range of the gateway n6 (the
// paper's high-density assumption: a deputy taking over can still reach the
// gateways).
func threeClusterChain() []geo.Point {
	return []geo.Point{
		{X: 0, Y: 0},     // n1 CH A
		{X: 150, Y: 0},   // n2 CH B
		{X: 300, Y: 0},   // n3 CH C
		{X: -20, Y: 10},  // n4 member A (in range of n6)
		{X: -20, Y: -10}, // n5 member A (in range of n6)
		{X: 75, Y: 0},    // n6 gateway A-B
		{X: 225, Y: 0},   // n7 gateway B-C
		{X: 20, Y: 30},   // n8 member A
		{X: 20, Y: -30},  // n9 member A
		{X: 180, Y: 30},  // n10 member B (out of gateway n6 range)
		{X: 180, Y: -30}, // n11 member B (out of gateway n6 range)
		{X: 300, Y: 30},  // n12 member C
		{X: 300, Y: -30}, // n13 member C
	}
}

func TestReportPropagatesAcrossChain(t *testing.T) {
	w := buildWorld(t, 1, 0, nil, threeClusterChain())
	w.crashAtEpoch(7, 2) // crash n8 (member of A) mid-epoch 2
	w.runUntilEpoch(6)

	// Every operational node in every cluster must know about n8.
	for i, s := range w.stacks {
		if i == 7 {
			continue
		}
		if !s.FDS.IsSuspected(8) {
			t.Errorf("node %d (cluster of %v) never learned of n8's failure",
				i+1, s.Cluster.View().CH)
		}
	}
	if w.tracer.Count(trace.TypeReportForward) == 0 {
		t.Error("no report forwarding traced")
	}
}

func TestNoReportWithoutNewFailures(t *testing.T) {
	w := buildWorld(t, 2, 0, nil, threeClusterChain())
	w.runUntilEpoch(6)
	if n := w.medium.Sent(wire.KindFailureReport); n != 0 {
		t.Errorf("%d failure reports sent with no failures (no news must be good news)", n)
	}
}

func TestMessageCostBounded(t *testing.T) {
	// One failure in a three-cluster chain without loss: the flood must
	// stay small — two gateway hops, two CH relays, plus bounded
	// retransmissions from CH watch timers.
	w := buildWorld(t, 3, 0, nil, threeClusterChain())
	w.crashAtEpoch(7, 2)
	w.runUntilEpoch(6)
	sent := w.medium.Sent(wire.KindFailureReport)
	if sent == 0 || sent > 12 {
		t.Errorf("failure-report transmissions = %d, want 1..12", sent)
	}
}

func TestBGWAssistsWhenPrimaryLinkDead(t *testing.T) {
	// Two gateway candidates between A and B (n6, n14). The primary is the
	// lower NID, n6. Kill n6's link toward CH B: the backup must step in.
	positions := append(threeClusterChain(), geo.Point{X: 75, Y: 20}) // n14
	w := buildWorld(t, 4, 0, nil, positions)
	w.runUntilEpoch(2)
	w.medium.SetLinkLoss(6, 2, 1.0) // n6 -> CH B dead
	w.crashAtEpoch(7, 2)
	w.runUntilEpoch(6)

	for _, i := range []int{1, 9, 10} { // CH B and members of B
		if !w.stacks[i].FDS.IsSuspected(8) {
			t.Errorf("node %d missed the failure despite backup gateway", i+1)
		}
	}
	if w.tracer.Count(trace.TypeBGWAssist) == 0 {
		t.Error("backup gateway never assisted")
	}
}

func TestBGWTakesOverWhenPrimaryCrashes(t *testing.T) {
	positions := append(threeClusterChain(), geo.Point{X: 75, Y: 20}) // n14 backup GW
	w := buildWorld(t, 5, 0, nil, positions)
	w.runUntilEpoch(2)
	w.crashAtEpoch(5, 2) // crash the primary gateway n6
	w.crashAtEpoch(7, 3) // then a member failure to report
	w.runUntilEpoch(8)

	if !w.stacks[1].FDS.IsSuspected(8) {
		t.Error("CH B never learned of n8 after primary gateway crash")
	}
	// n6's own failure must also have been reported across.
	if !w.stacks[1].FDS.IsSuspected(6) {
		t.Error("CH B never learned of the gateway's own failure")
	}
}

// TestTwoHopOnlyAcrossAGap: a border node that also knows a direct gateway
// for (its CH, the target) leaves the pair to that gateway. It arms no
// two-hop relay, and the target cluster still learns the report.
func TestTwoHopOnlyAcrossAGap(t *testing.T) {
	positions := append(threeClusterChain(),
		geo.Point{X: 60, Y: 70},  // n14 member A: hears gateway n6 and n15, not CH B
		geo.Point{X: 150, Y: 90}, // n15 member B: hears n14, not CH A or n6
	)
	w := buildWorld(t, 23, 0, nil, positions)
	w.crashAtEpoch(7, 2) // n8 fails; n1's epoch-3 update reports it
	w.runUntilEpoch(3)
	border := w.stacks[13].Cluster
	if got := border.CH(); got != 1 {
		t.Fatalf("layout: n14 follows %v, want n1", got)
	}
	if got := border.AppendBorderClusters(nil); !slices.Equal(got, []wire.NodeID{2}) {
		t.Fatalf("layout: n14's border clusters are %v, want [n2]", got)
	}
	if _, n, _ := border.GWRank(1, 2); n == 0 {
		t.Fatal("layout: n14 knows no direct gateway between A and B")
	}

	w.kernel.RunUntil(w.timing.EpochStart(4) + w.timing.Thop)
	st := w.stacks[13].Forwarder.state(1, 3)
	if st == nil {
		t.Fatal("n14 never heard report (n1, 3)")
	}
	for d := st.engaged; d != nil; d = d.next {
		if d.kind&dutyKindMask == dutyTwoHop {
			t.Errorf("n14 armed a two-hop relay toward %v beside gateway n6", d.target)
		}
	}
	w.runUntilEpoch(6)
	for _, e := range w.tracer.OfType(trace.TypeReportForward) {
		if e.Node == 14 && strings.HasPrefix(e.Detail, "two-hop") {
			t.Errorf("n14 relayed two-hop: %v", e)
		}
	}
	for _, i := range []int{1, 9, 10, 14} { // CH B and its members n10, n11, n15
		if !w.stacks[i].FDS.IsSuspected(8) {
			t.Errorf("n%d never learned of n8's failure", i+1)
		}
	}
}

func TestRetransmitOnLostForward(t *testing.T) {
	// Single gateway: sever the gateway -> CH B link only around the
	// instant of the first forward, so exactly that transmission dies and
	// the implicit-ack machinery must retransmit. (The window must avoid
	// the heartbeat/digest rounds — a longer outage makes cluster B
	// legitimately detect the unreachable gateway as failed.)
	w := buildWorld(t, 6, 0, nil, threeClusterChain())
	w.crashAtEpoch(7, 2)
	detectionEpoch := w.timing.EpochStart(3)
	severAt := detectionEpoch + w.timing.R2End() + w.timing.Thop/2   // after digests
	restoreAt := detectionEpoch + w.timing.R3End() + 2*w.timing.Thop // before the re-forward
	w.kernel.At(severAt, func() { w.medium.SetLinkLoss(6, 2, 1.0) })
	w.kernel.At(restoreAt, func() { w.medium.SetLinkLoss(6, 2, -1) })
	w.runUntilEpoch(7)

	if !w.stacks[1].FDS.IsSuspected(8) {
		t.Error("failure never reached cluster B despite retransmissions")
	}
	if w.tracer.Count(trace.TypeRetransmit) == 0 {
		t.Error("no retransmission traced")
	}
}

func TestPropagationUnderLoss(t *testing.T) {
	// p = 0.15 everywhere: the redundancy (implicit acks + retransmit +
	// BGW) must still get the report to every cluster.
	positions := append(threeClusterChain(),
		geo.Point{X: 75, Y: 20}, geo.Point{X: 225, Y: 20}) // extra candidates
	w := buildWorld(t, 7, 0.15, nil, positions)
	w.crashAtEpoch(7, 2)
	w.runUntilEpoch(8)
	for _, i := range []int{1, 2, 9, 10, 11, 12} {
		if !w.stacks[i].FDS.IsSuspected(8) {
			t.Errorf("node %d missed the remote failure at p=0.15", i+1)
		}
	}
}

func TestImplicitAcksDisabledStillWorksWithoutLoss(t *testing.T) {
	noAck := func(tm cluster.Timing) Config {
		c := DefaultConfig(tm)
		c.ImplicitAcks = false
		return c
	}
	w := buildWorld(t, 8, 0, noAck, threeClusterChain())
	w.crashAtEpoch(7, 2)
	w.runUntilEpoch(6)
	if !w.stacks[2].FDS.IsSuspected(8) {
		t.Error("fire-and-forget forwarding failed even without loss")
	}
	if w.tracer.Count(trace.TypeRetransmit) != 0 {
		t.Error("retransmissions despite implicit acks disabled")
	}
}

func TestCHFailureReportedAcrossClusters(t *testing.T) {
	// Crash CH A: the deputy takes over and the takeover report must reach
	// clusters B and C.
	w := buildWorld(t, 9, 0, nil, threeClusterChain())
	w.runUntilEpoch(2)
	w.crashAtEpoch(0, 2)
	w.runUntilEpoch(8)
	for _, i := range []int{1, 2, 9, 11} {
		if !w.stacks[i].FDS.IsSuspected(1) {
			t.Errorf("node %d never learned the CH of A failed", i+1)
		}
	}
}

func TestSeenAndReportCount(t *testing.T) {
	w := buildWorld(t, 10, 0, nil, threeClusterChain())
	w.crashAtEpoch(7, 2)
	w.runUntilEpoch(4)
	fw := w.stacks[1].Forwarder // CH B's forwarder
	if fw.ReportCount() == 0 || fw.LiveReports() == 0 {
		t.Errorf("CH B saw %d reports, holds %d; want both > 0", fw.ReportCount(), fw.LiveReports())
	}
	if !fw.Seen(1, 3) {
		t.Errorf("CH B should have seen the report from origin n1 seq 3")
	}
	if fw.Seen(1, 4) {
		t.Errorf("CH B claims a report n1 never sent")
	}
	// Retired, the report still counts as seen and counted.
	n := fw.ReportCount()
	w.runUntilEpoch(6)
	if fw.LiveReports() != 0 || !fw.Seen(1, 3) || fw.ReportCount() != n {
		t.Errorf("after retirement: %d live, Seen(n1, 3) = %v, count %d; want 0, true, %d",
			fw.LiveReports(), fw.Seen(1, 3), fw.ReportCount(), n)
	}
}

// TestReportStateRetires walks one report through its lifetime on the
// chain: held while it can be in flight, pooled reportEpochs boundaries
// after its epoch once no timer holds it, reused by the next report, and
// ignored (by the forwarder, not by fds) when a copy turns up late.
func TestReportStateRetires(t *testing.T) {
	w := buildWorld(t, 11, 0, nil, threeClusterChain())
	w.crashAtEpoch(7, 2) // n8 fails; n1's epoch-3 update reports it
	tm := w.timing
	w.kernel.RunUntil(tm.EpochStart(4) + tm.Thop)
	chB, gw := w.stacks[1].Forwarder, w.stacks[5].Forwarder // CH B, and gateway n6 between A and B
	stB, stGW := chB.state(1, 3), gw.state(1, 3)
	if stB == nil || stGW == nil {
		t.Fatal("report (n1, 3) not held at CH B and gateway n6 during epoch 4")
	}
	// (b) A backup-gateway duty still armed when the report ages out holds
	// the state until it fires: n6 stands by toward n1 until mid-epoch aged.
	aged := wire.Epoch(3 + reportEpochs)
	duty := stGW.addDuty(1)
	duty.arm(tm.EpochStart(aged)+tm.Interval/2-w.kernel.Now(), dutyBGW)

	// (a) At the boundary of epoch aged, an idle state is pooled.
	w.kernel.RunUntil(tm.EpochStart(aged) + tm.Thop)
	if chB.state(1, 3) != nil || !chB.pooled(stB) {
		t.Fatalf("CH B: report (n1, 3) not pooled at epoch %d: %d live, %d pooled",
			aged, chB.LiveReports(), chB.PooledReports())
	}
	if gw.state(1, 3) != stGW || gw.pooled(stGW) {
		t.Fatal("gateway n6: state pooled while its backup-gateway timer is armed")
	}
	w.kernel.RunUntil(tm.EpochStart(aged+1) - 1)
	if !duty.done() || duty.timer.Active() || gw.state(1, 3) != stGW {
		t.Fatal("gateway n6: the standby timer did not fire, or its state left before the next boundary")
	}
	w.kernel.RunUntil(tm.EpochStart(aged+1) + tm.Thop)
	if gw.state(1, 3) != nil || !gw.pooled(stGW) {
		t.Fatal("gateway n6: state not pooled at the boundary after its timer fired")
	}

	// (c) A late copy of the retired report: no relay, no duty, no
	// transmission from anyone, but fds still merges its failed list.
	sent := w.medium.Sent(wire.KindFailureReport)
	forwards := w.tracer.Count(trace.TypeReportForward)
	stale := gw.StaleCopies()
	w.hosts[1].Send(&wire.FailureReport{
		OriginCH: 1, Seq: 3, Epoch: 3, Sender: 2, TargetCH: wire.NoNode,
		NewFailed: []wire.NodeID{8}, AllFailed: []wire.NodeID{8, 99},
	})
	w.kernel.RunUntil(w.kernel.Now() + 20*tm.Thop)
	if got := w.medium.Sent(wire.KindFailureReport); got != sent+1 {
		t.Errorf("late copy caused %d more report transmissions", got-sent-1)
	}
	if got := w.tracer.Count(trace.TypeReportForward); got != forwards {
		t.Errorf("late copy caused %d forwarding steps", got-forwards)
	}
	if gw.StaleCopies() != stale+1 || gw.state(1, 3) != nil {
		t.Errorf("gateway n6: stale copies %d -> %d, state %v; want one more, none",
			stale, gw.StaleCopies(), gw.state(1, 3))
	}
	for _, i := range []int{5, 6, 9, 10} { // n6, n7, n10, n11 hear CH B
		if !w.stacks[i].FDS.IsSuspected(99) {
			t.Errorf("n%d: fds did not merge the late copy's failed list", i+1)
		}
		// (d) The retired report still counts as seen.
		if !w.stacks[i].Forwarder.Seen(1, 3) {
			t.Errorf("n%d: retired report (n1, 3) not Seen", i+1)
		}
	}

	// (a, continued) The next report reuses the pooled state at CH B.
	held := chB.LiveReports() + chB.PooledReports()
	w.crashAtEpoch(8, aged+1) // n9 fails; n1's next update reports it
	w.kernel.RunUntil(tm.EpochStart(aged + 3))
	if st := chB.state(1, uint64(aged+2)); st != stB {
		t.Errorf("CH B: report (n1, %d) in %p, want the pooled state %p", aged+2, st, stB)
	}
	if got := chB.LiveReports() + chB.PooledReports(); got != held {
		t.Errorf("CH B allocated %d report states for the next report, want 0", got-held)
	}

	// Every armed count returns to zero: once the last report ages out, no
	// surviving host holds a state.
	w.runUntilEpoch(aged + 2 + reportEpochs + 1)
	for i, s := range w.stacks {
		if n := s.Forwarder.LiveReports(); !w.hosts[i].Crashed() && n != 0 {
			t.Errorf("n%d holds %d report states after every report aged out", i+1, n)
		}
	}
}

// pooled reports whether st waits on the host's free list.
func (p *Protocol) pooled(st *reportState) bool {
	for f := p.freeStates; f != nil; f = f.next {
		if f == st {
			return true
		}
	}
	return false
}

func TestConfigValidation(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig())
	f := fds.New(fds.DefaultConfig(cluster.DefaultTiming()), cl)
	for name, fn := range map[string]func(){
		"nil cluster": func() { New(DefaultConfig(cluster.DefaultTiming()), nil, f) },
		"nil fds":     func() { New(DefaultConfig(cluster.DefaultTiming()), cl, nil) },
		"bad timing":  func() { New(Config{}, cl, f) },
		"other timing": func() {
			New(DefaultConfig(halfInterval()), cl, f)
		},
		"install other timing": func() {
			k := sim.New(1)
			h := node.New(k, radio.New(k, radio.Defaults(0)), 1, geo.Point{})
			Install(h, fds.DefaultConfig(cluster.DefaultTiming()), DefaultConfig(halfInterval()))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

// halfInterval is a valid timing other than the cluster protocol's default.
func halfInterval() cluster.Timing {
	t := cluster.DefaultTiming()
	t.Interval /= 2
	return t
}

// BenchmarkReportEpoch is one warm epoch of the chain flooding one new
// report: after fds.R-3, CH A transmits a report of the epoch (a new
// sequence naming the already failed n8), gateway n6 forwards it, CH B
// relays it, n7 forwards it and CH C relays it, with every implicit-ack
// watch that goes with that. Report states, duties, sender sets and content
// come from the forwarders' free lists, so the epoch is pinned at 0
// allocs/op.
func BenchmarkReportEpoch(b *testing.B) {
	w := buildWorldTo(trace.Nop{}, 1, 0, nil, threeClusterChain())
	w.crashAtEpoch(7, 2)
	tm := w.timing
	failed := []wire.NodeID{8}
	msg := &wire.FailureReport{OriginCH: 1, Sender: 1, TargetCH: wire.NoNode, NewFailed: failed, AllFailed: failed}
	e := wire.Epoch(4)
	flood := func() {
		w.kernel.RunUntil(tm.EpochStart(e) + tm.R3End() + tm.Thop/2)
		msg.Seq, msg.Epoch = uint64(e), e
		w.hosts[0].Send(msg)
		e++
		w.runUntilEpoch(e)
	}
	for i := 0; i < 4+reportEpochs; i++ {
		flood()
	}
	sent := w.medium.Sent(wire.KindFailureReport)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flood()
	}
	b.StopTimer()
	if !w.stacks[2].Forwarder.Seen(1, uint64(e-1)) {
		b.Fatal("the last report did not reach CH C")
	}
	b.ReportMetric(float64(w.medium.Sent(wire.KindFailureReport)-sent)/float64(b.N), "reports-tx/op")
}
