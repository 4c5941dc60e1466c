package fds

import (
	"testing"

	"clusterfds/internal/cluster"
	"clusterfds/internal/geo"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// world is a field of hosts running the cluster protocol and the FDS.
type world struct {
	kernel *sim.Kernel
	medium *radio.Medium
	hosts  []*node.Host
	cls    []*cluster.Protocol
	fds    []*Protocol
	timing cluster.Timing
	tracer *trace.Memory
}

type worldConfig struct {
	seed     int64
	lossProb float64
	fdsCfg   func(cluster.Timing) Config
}

func buildWorld(t *testing.T, cfg worldConfig, positions []geo.Point) *world {
	t.Helper()
	if cfg.fdsCfg == nil {
		cfg.fdsCfg = DefaultConfig
	}
	k := sim.New(cfg.seed)
	tr := trace.NewMemory(trace.TypeDetect, trace.TypeTakeover, trace.TypeFalseDetect, trace.TypePeerForward)
	m := radio.New(k, radio.Defaults(cfg.lossProb))
	w := &world{kernel: k, medium: m, timing: cluster.DefaultTiming(), tracer: tr}
	for i, pos := range positions {
		h := node.New(k, m, wire.NodeID(i+1), pos, node.WithTrace(tr))
		cl := cluster.New(cluster.Config{Timing: w.timing})
		f := New(cfg.fdsCfg(w.timing), cl)
		h.Use(cl)
		h.Use(f)
		w.hosts = append(w.hosts, h)
		w.cls = append(w.cls, cl)
		w.fds = append(w.fds, f)
	}
	for _, h := range w.hosts {
		h.Boot()
	}
	return w
}

// runUntilEpoch advances virtual time to the start of the given epoch.
func (w *world) runUntilEpoch(e wire.Epoch) {
	w.kernel.RunUntil(w.timing.EpochStart(e))
}

// crashAtEpoch crashes host idx just after epoch e begins plus the offset,
// honoring the assumption that hosts do not fail during an FDS execution
// when offset is large.
func (w *world) crashAtEpoch(idx int, e wire.Epoch, offset sim.Time) {
	w.kernel.At(w.timing.EpochStart(e)+offset, func() { w.hosts[idx].Crash() })
}

// midEpoch is an offset well past the FDS execution window.
func (w *world) midEpoch() sim.Time { return w.timing.Interval / 2 }

// star returns positions for one cluster: node 1 in the center, the rest on
// a ring of the given radius.
func star(n int, radius float64) []geo.Point {
	pts := make([]geo.Point, n)
	pts[0] = geo.Point{X: 0, Y: 0}
	for i := 1; i < n; i++ {
		pts[i] = geo.OnCircle(pts[0], radius, float64(i)*2*3.14159/float64(n-1))
	}
	return pts
}

func TestMemberFailureDetectedAndDisseminated(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 1}, star(8, 60))
	// Let the cluster form and FDS settle, then crash node 5 mid-epoch 2.
	w.crashAtEpoch(4, 2, w.midEpoch())
	w.runUntilEpoch(5)

	for i, f := range w.fds {
		if i == 4 {
			continue
		}
		if !f.IsSuspected(5) {
			t.Errorf("node %d does not know n5 failed", i+1)
		}
	}
	// The CH must not suspect anyone else.
	for _, id := range w.fds[0].KnownFailed() {
		if id != 5 {
			t.Errorf("spurious suspicion of %v", id)
		}
	}
	// Detection must be attributed to epoch 3 (first execution after the
	// crash).
	rec, ok := w.fds[0].View().Record(5)
	if !ok || rec.Epoch != 3 {
		t.Errorf("detection record = %+v, want epoch 3", rec)
	}
}

func TestNoFalseDetectionsWithoutLoss(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 2}, star(10, 70))
	w.runUntilEpoch(8)
	for i, f := range w.fds {
		if got := f.KnownFailed(); len(got) != 0 {
			t.Errorf("node %d suspects %v with p=0 and no crashes", i+1, got)
		}
	}
	if n := w.tracer.Count(trace.TypeDetect); n != 0 {
		t.Errorf("%d detections traced, want 0", n)
	}
}

func TestCHFailureTriggersDCHTakeover(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 3}, star(8, 60))
	w.runUntilEpoch(2)
	dchs := w.cls[0].View().DCHs
	if len(dchs) == 0 {
		t.Fatal("no deputies designated")
	}
	primary := dchs[0]

	w.crashAtEpoch(0, 2, w.midEpoch()) // crash the CH (node 1)
	w.runUntilEpoch(5)

	if w.tracer.Count(trace.TypeTakeover) == 0 {
		t.Fatal("no takeover traced")
	}
	// Every surviving member must know n1 failed and follow the new CH.
	for i := 1; i < len(w.fds); i++ {
		if !w.fds[i].IsSuspected(1) {
			t.Errorf("node %d does not know the CH failed", i+1)
		}
		v := w.cls[i].View()
		if v.CH != primary {
			t.Errorf("node %d follows %v, want %v", i+1, v.CH, primary)
		}
	}
	// The new CH must consider itself CH.
	newIdx := int(primary) - 1
	if !w.cls[newIdx].View().IsCH {
		t.Error("promoted deputy does not consider itself CH")
	}
}

func TestCascadedDCHTakeover(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 4}, star(9, 55))
	w.runUntilEpoch(2)
	dchs := w.cls[0].View().DCHs
	if len(dchs) < 2 {
		t.Fatalf("need two deputies, got %v", dchs)
	}
	// Crash both the CH and the primary deputy in the same inter-epoch gap.
	w.crashAtEpoch(0, 2, w.midEpoch())
	w.crashAtEpoch(int(dchs[0])-1, 2, w.midEpoch())
	w.runUntilEpoch(6)

	second := dchs[1]
	if !w.cls[int(second)-1].View().IsCH {
		t.Fatalf("second deputy %v did not take over", second)
	}
	for i := range w.fds {
		if wire.NodeID(i+1) == 1 || wire.NodeID(i+1) == dchs[0] {
			continue
		}
		if !w.fds[i].IsSuspected(1) {
			t.Errorf("node %d missed the CH failure", i+1)
		}
	}
}

func TestPeerForwardingRecoversLostUpdate(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 5}, star(8, 60))
	w.runUntilEpoch(2)
	// Sever the direct CH->n5 link so n5 never hears updates directly, and
	// crash n8 so there is something to report.
	w.medium.SetLinkLoss(1, 5, 1.0)
	w.crashAtEpoch(7, 2, w.midEpoch())
	w.runUntilEpoch(5)

	if !w.fds[4].IsSuspected(8) {
		t.Fatal("n5 never learned of the failure despite peer forwarding")
	}
	if w.tracer.Count(trace.TypePeerForward) == 0 {
		t.Error("no peer forwarding traced")
	}
}

func TestPeerForwardingDisabledLeavesGap(t *testing.T) {
	noFwd := func(tm cluster.Timing) Config {
		c := DefaultConfig(tm)
		c.PeerForwarding = false
		return c
	}
	w := buildWorld(t, worldConfig{seed: 6, fdsCfg: noFwd}, star(8, 60))
	w.runUntilEpoch(2)
	w.medium.SetLinkLoss(1, 5, 1.0)
	w.runUntilEpoch(3)
	// Sample just before epoch 4: n5 must have missed the epoch-3 update.
	w.kernel.RunUntil(w.timing.EpochStart(4) - 1)
	if w.fds[4].UpdateReceived() {
		t.Error("update received despite severed link and no peer forwarding")
	}
	if w.tracer.Count(trace.TypePeerForward) != 0 {
		t.Error("peer forwarding happened while disabled")
	}
}

func TestSinglePeerForwardPerRequest(t *testing.T) {
	// All peers hear the request, but after the first forward and ack the
	// rest must stand down: with 7 members and zero loss there must be
	// exactly one ForwardedUpdate per missed update.
	w := buildWorld(t, worldConfig{seed: 7}, star(8, 60))
	w.runUntilEpoch(2)
	w.medium.SetLinkLoss(1, 5, 1.0)
	w.runUntilEpoch(4)
	sent := w.medium.Sent(wire.KindForwardedUpdate)
	// Two epochs with a severed link -> exactly two forwards.
	if sent != 2 {
		t.Errorf("ForwardedUpdate count = %d, want 2 (one per epoch)", sent)
	}
}

func TestDigestRedundancyPreventsFalseDetection(t *testing.T) {
	// Sever both directions between the CH and n5: the CH hears neither
	// n5's heartbeat nor its digest, but other members' digests show n5
	// alive — the detection rule's condition 2 must save it.
	w := buildWorld(t, worldConfig{seed: 8}, star(8, 60))
	w.runUntilEpoch(2)
	w.medium.SetLinkLoss(5, 1, 1.0)
	w.medium.SetLinkLoss(1, 5, 1.0)
	w.runUntilEpoch(6)
	if w.fds[0].IsSuspected(5) {
		t.Error("CH falsely detected n5 despite digest evidence")
	}
	if n := w.tracer.Count(trace.TypeDetect); n != 0 {
		t.Errorf("%d detections, want 0", n)
	}
}

func TestSilencedNodeEventuallyDetected(t *testing.T) {
	// A node whose radio dies entirely is indistinguishable from a crashed
	// node and must be detected (it is partitioned, hence not
	// "operational" in the paper's sense).
	w := buildWorld(t, worldConfig{seed: 9}, star(8, 60))
	w.runUntilEpoch(2)
	w.kernel.At(w.timing.EpochStart(2)+w.midEpoch(), func() { w.medium.Silence(5, true) })
	w.runUntilEpoch(5)
	if !w.fds[0].IsSuspected(5) {
		t.Error("fully partitioned node never detected")
	}
}

func TestRescindAfterTransientSilence(t *testing.T) {
	// Silence n5 for one full epoch, then restore it: the CH should detect
	// it, then rescind the suspicion and re-admit on its next heartbeat.
	w := buildWorld(t, worldConfig{seed: 10}, star(8, 60))
	w.runUntilEpoch(2)
	w.kernel.At(w.timing.EpochStart(2)+w.midEpoch(), func() { w.medium.Silence(5, true) })
	w.kernel.At(w.timing.EpochStart(3)+w.midEpoch(), func() { w.medium.Silence(5, false) })
	w.runUntilEpoch(4)
	if !w.fds[0].IsSuspected(5) {
		t.Fatal("silenced node not detected during outage")
	}
	w.runUntilEpoch(7)
	if w.fds[0].IsSuspected(5) {
		t.Error("CH did not rescind after hearing the node again")
	}
	if !w.cls[0].View().IsMember(5) {
		t.Error("CH did not re-admit the rescinded node")
	}
}

func TestOrphanedMembersReform(t *testing.T) {
	// Tiny cluster: CH plus two members that are deputies. Crash the CH
	// and both deputies; remaining members are orphaned and must demote,
	// then form a fresh cluster.
	w := buildWorld(t, worldConfig{seed: 11}, star(6, 50))
	w.runUntilEpoch(2)
	dchs := w.cls[0].View().DCHs
	if len(dchs) != 2 {
		t.Fatalf("want 2 deputies, got %v", dchs)
	}
	w.crashAtEpoch(0, 2, w.midEpoch())
	w.crashAtEpoch(int(dchs[0])-1, 2, w.midEpoch())
	w.crashAtEpoch(int(dchs[1])-1, 2, w.midEpoch())
	w.runUntilEpoch(12)

	// Survivors must end up in a functioning cluster again.
	for i, cl := range w.cls {
		if w.hosts[i].Crashed() {
			continue
		}
		v := cl.View()
		if !v.Marked {
			t.Errorf("survivor n%d still unmarked after reformation window", i+1)
		}
		if v.CH == 1 || v.CH == dchs[0] || v.CH == dchs[1] {
			t.Errorf("survivor n%d still follows a dead CH %v", i+1, v.CH)
		}
	}
}

func TestModerateLossNoFalseDetections(t *testing.T) {
	// p = 0.1 on a dense single cluster for 10 epochs: the analysis says
	// false detection probability is ~1e-9 per node-epoch at N=20, so a
	// fixed-seed run must see none.
	w := buildWorld(t, worldConfig{seed: 12, lossProb: 0.1}, star(20, 60))
	w.runUntilEpoch(10)
	if n := w.tracer.Count(trace.TypeDetect); n != 0 {
		t.Errorf("%d detections with no crashes at p=0.1", n)
	}
	if n := w.tracer.Count(trace.TypeFalseDetect); n != 0 {
		t.Errorf("%d conflict events", n)
	}
}

func TestDetectionUnderLoss(t *testing.T) {
	// With p = 0.2, a real crash must still be detected and disseminated
	// to every survivor (completeness under loss).
	w := buildWorld(t, worldConfig{seed: 13, lossProb: 0.2}, star(12, 60))
	w.crashAtEpoch(6, 2, w.midEpoch())
	w.runUntilEpoch(8)
	for i, f := range w.fds {
		if i == 6 {
			continue
		}
		if !f.IsSuspected(7) {
			t.Errorf("node %d missed the crash of n7 at p=0.2", i+1)
		}
	}
}

func TestTwoClustersRemoteFailureViaReportMerge(t *testing.T) {
	// Without the intercluster forwarder, failure knowledge still reaches
	// the second cluster only if some host overhears — here clusters are
	// far apart, so the right cluster must NOT learn of the left failure.
	// (The intercluster package's tests verify the positive case.)
	positions := append(star(6, 50),
		geo.Point{X: 400, Y: 0}, geo.Point{X: 430, Y: 20}, geo.Point{X: 430, Y: -20})
	w := buildWorld(t, worldConfig{seed: 14}, positions)
	w.crashAtEpoch(2, 2, w.midEpoch())
	w.runUntilEpoch(6)
	if !w.fds[0].IsSuspected(3) {
		t.Fatal("left cluster missed its own failure")
	}
	for i := 6; i < 9; i++ {
		if w.fds[i].IsSuspected(3) {
			t.Errorf("isolated right cluster learned of a remote failure without a forwarder")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil cluster should panic")
			}
		}()
		New(DefaultConfig(cluster.DefaultTiming()), nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid timing should panic")
			}
		}()
		New(Config{}, cl)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a timing other than the cluster protocol's should panic")
			}
		}()
		New(DefaultConfig(halfInterval()), cl)
	}()
}

func TestEpochAndActiveQueries(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 15}, star(5, 50))
	w.runUntilEpoch(3)
	f := w.fds[1]
	if !f.Active() {
		t.Error("member should be active")
	}
	if f.Epoch() != 3 {
		t.Errorf("Epoch = %d, want 3", f.Epoch())
	}
	if f.Conflicts() != 0 {
		t.Error("unexpected conflicts")
	}
}

// halfInterval is a valid timing other than the cluster protocol's default.
func halfInterval() cluster.Timing {
	t := cluster.DefaultTiming()
	t.Interval /= 2
	return t
}
