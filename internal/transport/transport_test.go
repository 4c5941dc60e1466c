package transport

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"clusterfds/internal/geo"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// stubReceiver is a minimal Receiver recording deliveries.
type stubReceiver struct {
	id   wire.NodeID
	down bool
	got  []wire.Message
	from []wire.NodeID
}

func (r *stubReceiver) ID() wire.NodeID   { return r.id }
func (r *stubReceiver) Pos() geo.Point    { return geo.Point{} }
func (r *stubReceiver) Operational() bool { return !r.down }
func (r *stubReceiver) Deliver(m wire.Message, from wire.NodeID) {
	r.got = append(r.got, wire.Clone(m))
	r.from = append(r.from, from)
}

func TestFakeWallAdvanceFiresDueWaiters(t *testing.T) {
	w := NewFakeWall()
	if w.Elapsed() != 0 {
		t.Fatalf("fresh fake wall at %v, want 0", w.Elapsed())
	}
	a := w.After(10 * time.Millisecond)
	b := w.After(30 * time.Millisecond)
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	if closed(a) || closed(b) {
		t.Fatal("waiters fired before any Advance")
	}
	w.Advance(10 * time.Millisecond)
	if !closed(a) {
		t.Error("10ms waiter did not fire at +10ms")
	}
	if closed(b) {
		t.Error("30ms waiter fired early")
	}
	w.Advance(25 * time.Millisecond)
	if !closed(b) {
		t.Error("30ms waiter did not fire at +35ms")
	}
	if w.Elapsed() != 35*time.Millisecond {
		t.Errorf("Elapsed = %v, want 35ms", w.Elapsed())
	}
}

func TestFakeWallNonPositiveDelayIsClosed(t *testing.T) {
	w := NewFakeWall()
	for _, d := range []sim.Time{0, -time.Second} {
		select {
		case <-w.After(d):
		default:
			t.Errorf("After(%v) not immediately closed", d)
		}
	}
}

// recv is how these tests read a port: with a positive wait it parks on the
// inbox's Ready for at most that long, the way daemon.Run does, and then (or
// at once, when wait is 0) drains what is queued. open is false once the
// link is closed and Ready with it. A payload is valid only until the Drain
// callback returns, so each is copied there.
func recv(l Link, wait time.Duration) (pkts []Packet, open bool) {
	in := l.Inbox()
	open = true
	if wait > 0 {
		select {
		case _, open = <-in.Ready():
		case <-time.After(wait):
		}
	}
	in.Drain(func(p Packet) {
		p.Payload = bytes.Clone(p.Payload)
		pkts = append(pkts, p)
	})
	return pkts, open
}

func TestChanMeshBroadcastReachesAllOthers(t *testing.T) {
	cm := NewChanMesh()
	l1 := cm.Join(1)
	l2 := cm.Join(2)
	l3 := cm.Join(3)
	if err := l1.Broadcast(1, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	for _, l := range []*ChanLink{l2, l3} {
		select {
		case <-l.Inbox().Ready():
		default:
			t.Errorf("port %v is not ready after a datagram was queued on it", l.ID())
		}
		pkts, _ := recv(l, 0)
		if len(pkts) != 1 {
			t.Fatalf("port %v got %d datagrams, want 1", l.ID(), len(pkts))
		}
		if p := pkts[0]; p.From != 1 || len(p.Payload) != 2 || p.Payload[0] != 0xAA {
			t.Errorf("port %v got %+v", l.ID(), p)
		}
	}
	if pkts, _ := recv(l1, 0); len(pkts) != 0 {
		t.Errorf("sender received its own broadcast: %+v", pkts)
	}
}

// TestChanMeshPayloadsDoNotAlias pins the datagram's ownership rule: every
// port of one broadcast may see the same read-only bytes, but never the
// sender's buffer, which its LinkTransport rewrites on the next Send. That
// holds for a payload carved from a slab and for one longer than a slab.
func TestChanMeshPayloadsDoNotAlias(t *testing.T) {
	for _, size := range []int{5, slabSize + 1} {
		cm := NewChanMesh()
		l1 := cm.Join(1)
		ports := []*ChanLink{cm.Join(2), cm.Join(3), cm.Join(4)}
		sent := make([]byte, size)
		for i := range sent {
			sent[i] = byte(i + 1)
		}
		buf := append([]byte(nil), sent...)
		if err := l1.Broadcast(1, buf); err != nil {
			t.Fatal(err)
		}
		fill(buf, 99) // sender reuses its buffer immediately
		for _, l := range ports {
			pkts, _ := recv(l, 0)
			if len(pkts) != 1 {
				t.Fatalf("%d bytes: port %v got %d datagrams, want 1", size, l.ID(), len(pkts))
			}
			if p := pkts[0]; p.From != 1 || !bytes.Equal(p.Payload, sent) {
				t.Errorf("%d bytes: port %v got a %d-byte datagram from %v that differs from the one sent: payload aliases the sender's reused buffer", size, l.ID(), len(p.Payload), p.From)
			}
		}
	}
}

// fill sets every byte of b to v.
func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

// intact reports whether every byte of a datagram is v, as fill wrote it.
func intact(p []byte, v byte) bool {
	for _, b := range p {
		if b != v {
			return false
		}
	}
	return true
}

// TestChanMeshConcurrentUse runs broadcasters that rewrite their buffer after
// every Broadcast against receivers that read every byte of what arrives
// inside the Drain callback, the only place a payload is valid, all at once.
// The traffic is 24 slabs, more than four times what the mesh holds, so
// slabs are reused while receivers read them: under -race this is the gate on
// "a slab is reused only after every drain that could see it has returned",
// on "the shared copy is written once, before any port can see it" and on
// the inbox's hand-over of a slot between its producer and its consumer. A
// receiver parks on Ready between drains, so a lost wake-up shows as a port
// that ends short.
func TestChanMeshConcurrentUse(t *testing.T) {
	const nPorts, perSender, size = 4, 200, 2000 // (nPorts-1)*perSender < inboxDepth: nothing drops
	if nPorts*perSender*size < 4*(slabHold+1)*slabSize {
		t.Fatal("the traffic does not cycle the slabs")
	}
	cm := NewChanMesh()
	links := make([]*ChanLink, nPorts)
	for i := range links {
		links[i] = cm.Join(wire.NodeID(i + 1))
	}
	var senders, receivers sync.WaitGroup
	got := make([]int, nPorts)
	for i, l := range links {
		senders.Add(1)
		go func() {
			defer senders.Done()
			buf := make([]byte, size)
			for seq := 0; seq < perSender; seq++ {
				fill(buf, byte(seq)) // every byte of a datagram is its seq
				if err := l.Broadcast(l.ID(), buf); err != nil {
					t.Error(err)
				}
			}
		}()
		receivers.Add(1)
		go func() {
			defer receivers.Done()
			last := make(map[wire.NodeID]int) // sender -> seq of its latest datagram
			torn := false
			check := func(p Packet) {
				got[i]++
				if len(p.Payload) != size || !intact(p.Payload, p.Payload[0]) {
					if !torn {
						t.Errorf("port %v: torn datagram from %v: % x", l.ID(), p.From, p.Payload)
					}
					torn = true
					return
				}
				if seq, seen := last[p.From]; seen && int(p.Payload[0]) != seq+1 {
					t.Errorf("port %v: datagram %d from %v follows %d: not FIFO", l.ID(), p.Payload[0], p.From, seq)
				}
				last[p.From] = int(p.Payload[0])
			}
			in := l.Inbox()
			for open := true; open; {
				select {
				case _, open = <-in.Ready():
				case <-time.After(30 * time.Second):
				}
				in.Drain(check)
			}
		}()
	}
	senders.Wait()
	for _, l := range links {
		l.Close() // ends its receiver, which drains what is queued first
	}
	receivers.Wait()
	for i, n := range got {
		if n != (nPorts-1)*perSender {
			t.Errorf("port %v received %d datagrams, want %d", links[i].ID(), n, (nPorts-1)*perSender)
		}
	}
}

// TestChanMeshStalledPortHoldsBoundedSlabs keeps a port joined that never
// drains while a peer broadcasts 20 slabs' worth: the mesh holds no more
// than slabHold retired slabs, the draining port reads every datagram
// intact, and so does the stalled port when it finally drains. Its slabs
// were left to the collector, never reused.
func TestChanMeshStalledPortHoldsBoundedSlabs(t *testing.T) {
	cm := NewChanMesh()
	l1, stalled, l3 := cm.Join(1), cm.Join(2), cm.Join(3)
	payload := make([]byte, 1000)
	for i := 0; i < 20*slabSize/len(payload); i++ {
		fill(payload, byte(i))
		if err := l1.Broadcast(1, payload); err != nil {
			t.Fatal(err)
		}
		n := 0
		l3.Inbox().Drain(func(p Packet) {
			if n++; !intact(p.Payload, byte(i)) {
				t.Fatalf("draining port: datagram %d torn: % x", i, p.Payload[:8])
			}
		})
		if n != 1 {
			t.Fatalf("draining port got %d datagrams at broadcast %d, want 1", n, i)
		}
		if h := len(cm.rx.held); h > slabHold {
			t.Fatalf("broadcast %d: the mesh holds %d retired slabs, want at most %d", i, h, slabHold)
		}
	}
	n := 0
	stalled.Inbox().Drain(func(p Packet) {
		if !intact(p.Payload, byte(n)) {
			t.Fatalf("stalled port: datagram %d was overwritten: % x", n, p.Payload[:8])
		}
		n++
	})
	if n != inboxDepth {
		t.Errorf("stalled port held %d datagrams, want %d", n, inboxDepth)
	}
}

// TestChanMeshLeftPortReadsIntact queues datagrams on a port that then
// leaves the mesh: after more traffic, within and beyond what the mesh
// holds, the port still drains them intact. Its slab was retired with its
// mark when it left, not reused by the ports that stayed.
func TestChanMeshLeftPortReadsIntact(t *testing.T) {
	for _, slabs := range []int{3, 12} {
		cm := NewChanMesh()
		l1, gone, l3 := cm.Join(1), cm.Join(2), cm.Join(3)
		payload := make([]byte, 1000)
		broadcast := func(v byte) {
			fill(payload, v)
			if err := l1.Broadcast(1, payload); err != nil {
				t.Fatal(err)
			}
			l3.Inbox().Drain(func(Packet) {})
		}
		const queued = 10
		for i := 0; i < queued; i++ {
			broadcast(byte(i))
		}
		gone.Close()
		for i := 0; i < slabs*slabSize/len(payload); i++ {
			broadcast(0xEE)
		}
		n := 0
		gone.Inbox().Drain(func(p Packet) {
			if !intact(p.Payload, byte(n)) {
				t.Errorf("after %d slabs of traffic: the departed port's datagram %d was overwritten: % x", slabs, n, p.Payload[:8])
			}
			n++
		})
		if n != queued {
			t.Errorf("after %d slabs of traffic: the departed port drained %d datagrams, want %d", slabs, n, queued)
		}
	}
}

// TestClosedLinkBroadcastsNothing pins that a closed link transmits nothing
// and says so: both links return net.ErrClosed, and no peer queues the
// datagram.
func TestClosedLinkBroadcastsNothing(t *testing.T) {
	t.Run("ChanLink", func(t *testing.T) {
		cm := NewChanMesh()
		l, peer := cm.Join(1), cm.Join(2)
		l.Close()
		if err := l.Broadcast(1, []byte{1}); !errors.Is(err, net.ErrClosed) {
			t.Errorf("Broadcast after Close returned %v, want net.ErrClosed", err)
		}
		if n := peer.Inbox().Len(); n != 0 {
			t.Errorf("a peer queued %d datagrams from a closed link, want 0", n)
		}
	})
	t.Run("UDPLink", func(t *testing.T) {
		peer, err := NewUDPLink(2, "127.0.0.1:0", nil)
		if err != nil {
			t.Skipf("cannot bind UDP in this environment: %v", err)
		}
		defer peer.Close()
		l, err := NewUDPLink(1, "127.0.0.1:0", []string{peer.LocalAddr().String()})
		if err != nil {
			t.Skipf("cannot bind UDP in this environment: %v", err)
		}
		l.Close()
		if err := l.Broadcast(1, []byte{1}); !errors.Is(err, net.ErrClosed) {
			t.Errorf("Broadcast after Close returned %v, want net.ErrClosed", err)
		}
		if pkts, _ := recv(peer, 100*time.Millisecond); len(pkts) != 0 {
			t.Errorf("the peer received %d datagrams from a closed link, want 0", len(pkts))
		}
	})
}

func TestChanMeshLeaveStopsDelivery(t *testing.T) {
	cm := NewChanMesh()
	l1 := cm.Join(1)
	l2 := cm.Join(2)
	l2.Close()
	if err := l1.Broadcast(1, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if pkts, open := recv(l2, time.Second); open || len(pkts) != 0 {
		t.Errorf("closed port: Ready open = %v, %d datagrams; want closed and none", open, len(pkts))
	}
	// Double close is safe.
	l2.Close()
}

func TestChanMeshDropsWhenQueueFull(t *testing.T) {
	cm := NewChanMesh()
	l1 := cm.Join(1)
	l2 := cm.Join(2) // never drained: fills, then drops
	l3 := cm.Join(3) // drained as it goes: must lose nothing to l2's full queue
	const sent = inboxDepth + 10
	for i := 0; i < sent; i++ {
		if err := l1.Broadcast(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if pkts, _ := recv(l3, 0); len(pkts) != 1 || pkts[0].Payload[0] != byte(i) {
			t.Fatalf("draining port got %v at broadcast %d", pkts, i)
		}
	}
	if got := l2.Inbox().Len(); got != inboxDepth {
		t.Errorf("full port reports %d queued, want the depth %d", got, inboxDepth)
	}
	pkts, _ := recv(l2, 0)
	for n, p := range pkts {
		if p.Payload[0] != byte(n) {
			t.Fatalf("full port holds datagram %d at position %d: it must keep the oldest %d in order", p.Payload[0], n, inboxDepth)
		}
	}
	if len(pkts) != inboxDepth {
		t.Errorf("queued %d packets, want exactly the depth %d", len(pkts), inboxDepth)
	}
	if got := l2.Inbox().Dropped(); got != sent-inboxDepth {
		t.Errorf("undrained port counted %d drops, want %d", got, sent-inboxDepth)
	}
	if got := l3.Inbox().Dropped(); got != 0 {
		t.Errorf("drained port counted %d drops, want 0", got)
	}
	// A drained ring takes datagrams again, past the wrap.
	for i := 0; i < 3; i++ {
		l1.Broadcast(1, []byte{byte(100 + i)})
	}
	if pkts, _ := recv(l2, 0); len(pkts) != 3 || pkts[0].Payload[0] != 100 || pkts[2].Payload[0] != 102 {
		t.Errorf("after the drain the port holds %v, want datagrams 100..102", pkts)
	}
}

// TestChanMeshCloseRacesBroadcast closes a port while a peer broadcasts to it
// and its consumer drains it. Nothing may panic — a wake-up sent to a Ready
// that Close has closed would — and once Ready reads closed, the port's queue
// takes no further datagram (TestChanMeshLeaveStopsDelivery's contract, under
// contention). Run with -race.
func TestChanMeshCloseRacesBroadcast(t *testing.T) {
	for round := 0; round < 200; round++ {
		cm := NewChanMesh()
		sender, l := cm.Join(1), cm.Join(2)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sender.Broadcast(1, []byte{1})
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		recv(l, time.Second) // traffic is flowing
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Close()
		}()
		for open := true; open; {
			_, open = recv(l, time.Second)
		}
		tail := l.in.tail.Load() // moved by the producer only
		sender.Broadcast(1, []byte{2})
		close(stop)
		wg.Wait()
		if got := l.in.tail.Load(); got != tail {
			t.Fatalf("round %d: %d datagrams were queued on the port after it closed", round, got-tail)
		}
	}
}

func TestLinkTransportRoundTrip(t *testing.T) {
	k := sim.New(1)
	cm := NewChanMesh()
	la := cm.Join(1)
	lb := cm.Join(2)
	ta := NewLinkTransport(k, la)
	tb := NewLinkTransport(k, lb)
	ra := &stubReceiver{id: 1}
	rb := &stubReceiver{id: 2}
	ta.Attach(ra)
	tb.Attach(rb)

	msg := &wire.Heartbeat{NID: 1, Epoch: 3}
	ta.Send(1, msg)
	pkts, _ := recv(lb, 0)
	if len(pkts) != 1 {
		t.Fatalf("port got %d datagrams, want 1", len(pkts))
	}
	if err := tb.Inject(pkts[0]); err != nil {
		t.Fatalf("inject: %v", err)
	}
	if len(rb.got) != 1 {
		t.Fatalf("receiver got %d messages, want 1", len(rb.got))
	}
	hb, ok := rb.got[0].(*wire.Heartbeat)
	if !ok || hb.NID != 1 || hb.Epoch != 3 {
		t.Errorf("delivered %#v, want heartbeat{1,3}", rb.got[0])
	}
	if rb.from[0] != 1 {
		t.Errorf("delivered from %v, want 1", rb.from[0])
	}
	// Energy was charged on both ends.
	if ta.Energy(1) >= DefaultEnergy().InitialEnergy {
		t.Error("sender was not charged tx energy")
	}
	if tb.Energy(2) >= DefaultEnergy().InitialEnergy {
		t.Error("receiver was not charged rx energy")
	}
}

func TestLinkTransportRejectsHostileDatagrams(t *testing.T) {
	k := sim.New(1)
	cm := NewChanMesh()
	l := cm.Join(1)
	lt := NewLinkTransport(k, l)
	r := &stubReceiver{id: 1}
	lt.Attach(r)

	cases := []Packet{
		{From: 2, Payload: []byte{}},                             // empty
		{From: 2, Payload: []byte{0xFF, 1, 2, 3}},                // unknown kind
		{From: 2, Payload: []byte{0}},                            // truncated
		{From: 0, Payload: wire.Encode(&wire.Heartbeat{NID: 9})}, // NID 0
		{From: 1, Payload: wire.Encode(&wire.Heartbeat{NID: 1})}, // reflection
	}
	for i, p := range cases {
		if err := lt.Inject(p); err == nil {
			t.Errorf("case %d: hostile datagram accepted", i)
		}
	}
	if len(r.got) != 0 {
		t.Errorf("hostile datagrams reached the protocol stack: %d deliveries", len(r.got))
	}
	if lt.BadDatagrams() != int64(len(cases)) {
		t.Errorf("BadDatagrams = %d, want %d", lt.BadDatagrams(), len(cases))
	}
}

func TestLinkTransportGatesOnOperational(t *testing.T) {
	k := sim.New(1)
	cm := NewChanMesh()
	la := cm.Join(1)
	lb := cm.Join(2)
	ta := NewLinkTransport(k, la)
	ra := &stubReceiver{id: 1, down: true}
	ta.Attach(ra)

	// Down host sends nothing.
	ta.Send(1, &wire.Heartbeat{NID: 1})
	if pkts, _ := recv(lb, 0); len(pkts) != 0 {
		t.Error("non-operational host transmitted")
	}
	// Down host receives nothing (and that is not an error).
	if err := ta.Inject(Packet{From: 2, Payload: wire.Encode(&wire.Heartbeat{NID: 2})}); err != nil {
		t.Errorf("inject to down host errored: %v", err)
	}
	if len(ra.got) != 0 {
		t.Error("non-operational host received a delivery")
	}
	// Sends from a foreign NID are ignored.
	ta.Send(7, &wire.Heartbeat{NID: 7})
	if pkts, _ := recv(lb, 0); len(pkts) != 0 {
		t.Error("transport sent on behalf of a foreign NID")
	}
}

func TestUDPLinkRoundTrip(t *testing.T) {
	la, err := NewUDPLink(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Skipf("cannot bind UDP in this environment: %v", err)
	}
	defer la.Close()
	lb, err := NewUDPLink(2, "127.0.0.1:0", []string{la.LocalAddr().String()})
	if err != nil {
		t.Skipf("cannot bind UDP in this environment: %v", err)
	}
	defer lb.Close()

	payload := wire.Encode(&wire.Heartbeat{NID: 2, Epoch: 5})
	if err := lb.Broadcast(2, payload); err != nil {
		t.Fatal(err)
	}
	pkts, _ := recv(la, 5*time.Second)
	if len(pkts) != 1 {
		t.Fatalf("%d datagrams arrived, want 1", len(pkts))
	}
	p := pkts[0]
	if p.From != 2 {
		t.Errorf("From = %v, want 2", p.From)
	}
	m, err := wire.Decode(p.Payload)
	if err != nil {
		t.Fatalf("payload does not decode: %v", err)
	}
	if hb := m.(*wire.Heartbeat); hb.NID != 2 || hb.Epoch != 5 {
		t.Errorf("decoded %+v, want heartbeat{2,5}", hb)
	}
}

// TestUDPLinkCountsRunts sends a frame too short to name its sender, then a
// good one: the runt is counted on the link and never reaches the inbox.
func TestUDPLinkCountsRunts(t *testing.T) {
	l, err := NewUDPLink(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Skipf("cannot bind UDP in this environment: %v", err)
	}
	defer l.Close()
	conn, err := net.DialUDP("udp", nil, l.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Skipf("cannot dial UDP in this environment: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{2, 0, 0, 0, 0xAB}); err != nil {
		t.Fatal(err)
	}
	pkts, _ := recv(l, 5*time.Second)
	if len(pkts) != 1 || pkts[0].From != 2 || !bytes.Equal(pkts[0].Payload, []byte{0xAB}) {
		t.Fatalf("inbox holds %+v, want the one framed datagram from n2", pkts)
	}
	if got := l.Runts(); got != 1 {
		t.Errorf("Runts = %d, want 1", got)
	}
	if got := l.Inbox().Dropped(); got != 0 {
		t.Errorf("Dropped = %d, want 0: a runt is not a queue drop", got)
	}
}

// TestUDPLinkReceiveAllocatesNothing sends and drains datagrams over
// loopback one at a time and counts the allocations the whole process makes
// meanwhile: the sender's framing, the reader goroutine's read and carve, the
// inbox and the drain. Once the link has cycled past its first slabs, none
// allocates per datagram.
func TestUDPLinkReceiveAllocatesNothing(t *testing.T) {
	rx, err := NewUDPLink(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Skipf("cannot bind UDP in this environment: %v", err)
	}
	defer rx.Close()
	tx, err := NewUDPLink(2, "127.0.0.1:0", []string{rx.LocalAddr().String()})
	if err != nil {
		t.Skipf("cannot bind UDP in this environment: %v", err)
	}
	defer tx.Close()
	payload := make([]byte, 333)
	in := rx.Inbox()
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	received := 0
	count := func(p Packet) { received += len(p.Payload) }
	roundTrips := func(n int) {
		for i := 0; i < n; i++ {
			if err := tx.Broadcast(2, payload); err != nil {
				t.Fatal(err)
			}
			for in.Len() == 0 {
				select {
				case <-in.Ready():
				case <-deadline.C:
					t.Fatalf("datagram %d of %d did not arrive", i, n)
				}
			}
			in.Drain(count)
		}
	}
	roundTrips(2 * (slabHold + 1) * slabSize / len(payload))
	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	roundTrips(n)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs*10 >= n {
		t.Errorf("%d allocations (%d B) for %d datagrams, want 0 per datagram", allocs, after.TotalAlloc-before.TotalAlloc, n)
	}
	if want := (2*(slabHold+1)*slabSize/len(payload) + n) * len(payload); received != want {
		t.Errorf("received %d bytes, want %d", received, want)
	}
}

func TestUDPLinkCloseClosesPackets(t *testing.T) {
	l, err := NewUDPLink(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Skipf("cannot bind UDP in this environment: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if pkts, open := recv(l, 5*time.Second); open || len(pkts) != 0 {
		t.Fatalf("after Close: Ready open = %v, %d datagrams; want closed and none", open, len(pkts))
	}
	// Double close is safe.
	l.Close()
}

func TestMeterMatchesRadioArithmetic(t *testing.T) {
	k := sim.New(1)
	p := DefaultEnergy()
	m := NewMeter(p, k)
	s1 := m.Track(1)
	if got := m.Energy(1); got != p.InitialEnergy {
		t.Fatalf("fresh meter energy %v, want %v", got, p.InitialEnergy)
	}
	m.ChargeTx(s1, 100)
	m.ChargeRx(s1, 40)
	wantSpent := p.TxBaseCost + p.TxByteCost*100 + p.RxByteCost*40
	if got := m.Spent(1); got != wantSpent {
		t.Errorf("Spent = %v, want %v", got, wantSpent)
	}
	// Charging an untracked host is a no-op; its energy reads zero.
	m.ChargeTx(9, 1000)
	m.ChargeRx(s1+1, 1000) // the slot the next Track will hand out
	if m.Spent(9) != 0 || m.Energy(9) != 0 {
		t.Error("untracked host has nonzero meter state")
	}
	// Slots follow Track order, and tracking twice keeps the first slot.
	s2 := m.Track(2)
	if s1 != 0 || s2 != 1 || m.Track(1) != s1 {
		t.Fatalf("slots = %d, %d, re-Track(1) = %d; want 0, 1, 0", s1, s2, m.Track(1))
	}
	if m.Spent(2) != 0 {
		t.Error("a charge to a slot nobody held yet was kept for its later owner")
	}
	m.ChargeTx(s2, 10)
	if got, want := m.TotalSpent(), wantSpent+p.TxBaseCost+p.TxByteCost*10; got != want {
		t.Errorf("TotalSpent = %v, want %v", got, want)
	}
}
