package transport

import (
	"fmt"
	"net"
	"sync"

	"clusterfds/internal/wire"
)

// ChanMesh is a thread-safe in-process broadcast hub: every joined port's
// Broadcast is copied once and queued on every other port's Inbox.
// It is the test stand-in for N UDP sockets on localhost — daemon tests run
// whole multi-node clusters in one process, with no real sockets and no wall
// time, and can model a vanished node by simply leaving the mesh.
//
// A received Packet's payload is read-only, shared by all receivers of one
// broadcast and valid until their Drain callback returns (see Packet); it
// never aliases the sender's buffer. Delivery is best-effort: a port whose
// inbox is full drops the datagram and counts it, exactly as a saturated
// socket buffer would.
type ChanMesh struct {
	mu      sync.Mutex
	ports   []*ChanLink // join order; closed ports are compacted out
	inboxes []*Inbox    // ports[i].Inbox(), the consumers of rx
	rx      slabs       // where every broadcast's one copy is carved
}

// NewChanMesh creates an empty mesh.
func NewChanMesh() *ChanMesh { return &ChanMesh{} }

// Join adds a port for the given NID and returns its link.
func (cm *ChanMesh) Join(id wire.NodeID) *ChanLink {
	if id == wire.NoNode {
		panic("transport: cannot join mesh with NID 0")
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	for _, p := range cm.ports {
		if p.id == id {
			panic(fmt.Sprintf("transport: duplicate mesh NID %v", id))
		}
	}
	link := &ChanLink{mesh: cm, id: id}
	link.in.init()
	cm.ports = append(cm.ports, link)
	cm.inboxes = append(cm.inboxes, &link.in)
	return link
}

// leave removes a port and closes its inbox: under the lock every broadcast
// holds, so nothing is queued on a port once its Close has returned, and the
// link transmits no more. The current slab is retired first, so the bytes
// still queued on the port are not reused before it drains them. Called by
// ChanLink.Close; leaving twice is harmless.
func (cm *ChanMesh) leave(link *ChanLink) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	for i, p := range cm.ports {
		if p == link {
			cm.rx.retire(cm.inboxes...)
			cm.ports = append(cm.ports[:i], cm.ports[i+1:]...)
			cm.inboxes = append(cm.inboxes[:i], cm.inboxes[i+1:]...)
			break
		}
	}
	link.left = true
	link.in.close()
}

// broadcast queues payload on every port except the sender's own, or
// returns net.ErrClosed once the sender has left. The mesh lock makes it the
// one producer every inbox and the slabs expect, and is the only lock a
// broadcast takes.
func (cm *ChanMesh) broadcast(sender *ChanLink, from wire.NodeID, payload []byte) error {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if sender.left {
		return net.ErrClosed
	}
	// The sender's LinkTransport reuses payload for its next Send; every
	// port's Packet shares one private, read-only copy.
	pkt := Packet{From: from, Payload: cm.rx.carve(payload, cm.inboxes...)}
	// Carved bytes go only to inboxes reached through cm, the slabs' owner,
	// whose marks keep them valid: the arenaescape analyzer's owner rule
	// (DESIGN.md §12), which it cannot see through a range variable.
	for i := range cm.inboxes {
		if q := cm.inboxes[i]; q != &sender.in {
			q.push(pkt)
		}
	}
	return nil
}

// ChanLink is one port on a ChanMesh. It implements Link.
type ChanLink struct {
	mesh *ChanMesh
	id   wire.NodeID
	in   Inbox
	left bool // guarded by mesh.mu
}

// ID returns the port's NID.
func (l *ChanLink) ID() wire.NodeID { return l.id }

// Broadcast implements Broadcaster. After Close it queues nothing and
// returns net.ErrClosed, as a closed socket would.
func (l *ChanLink) Broadcast(from wire.NodeID, payload []byte) error {
	return l.mesh.broadcast(l, from, payload)
}

// Inbox implements Link.
func (l *ChanLink) Inbox() *Inbox { return &l.in }

// Close implements Link: the port leaves the mesh and its inbox is closed;
// datagrams queued before that stay drainable.
func (l *ChanLink) Close() error {
	l.mesh.leave(l)
	return nil
}

var _ Link = (*ChanLink)(nil)
