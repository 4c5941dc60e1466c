package transport

import (
	"fmt"
	"sync"

	"clusterfds/internal/wire"
)

// ChanMesh is a thread-safe in-process broadcast hub: every joined port's
// Broadcast is copied once and queued on every other port's Inbox.
// It is the test stand-in for N UDP sockets on localhost — daemon tests run
// whole multi-node clusters in one process, with no real sockets and no wall
// time, and can model a vanished node by simply leaving the mesh.
//
// A received Packet's payload is read-only and may be shared by all
// receivers of one broadcast (see Packet); it never aliases the sender's
// buffer. Delivery is best-effort: a port whose inbox is full drops the
// datagram and counts it, exactly as a saturated socket buffer would.
type ChanMesh struct {
	mu    sync.Mutex
	ports []*ChanLink // join order; closed ports are compacted out
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
	return link
}

// leave removes a port and closes its inbox: under the lock every broadcast
// holds, so nothing is queued on a port once its Close has returned. Called
// by ChanLink.Close; leaving twice is harmless.
func (cm *ChanMesh) leave(link *ChanLink) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	for i, p := range cm.ports {
		if p == link {
			cm.ports = append(cm.ports[:i], cm.ports[i+1:]...)
			break
		}
	}
	link.in.close()
}

// broadcast queues payload on every port except the sender's own. The mesh
// lock makes it the one producer every inbox expects, and is the only lock a
// broadcast takes.
func (cm *ChanMesh) broadcast(sender *ChanLink, from wire.NodeID, payload []byte) {
	// The sender's LinkTransport reuses payload for its next Send; every
	// port's Packet shares one private, read-only copy, as Mesh.Broadcast's
	// deliveries do.
	pkt := Packet{From: from, Payload: append([]byte(nil), payload...)}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	for _, p := range cm.ports {
		if p == sender {
			continue
		}
		p.in.push(pkt)
	}
}

// ChanLink is one port on a ChanMesh. It implements Link.
type ChanLink struct {
	mesh *ChanMesh
	id   wire.NodeID
	in   Inbox
}

// ID returns the port's NID.
func (l *ChanLink) ID() wire.NodeID { return l.id }

// Broadcast implements Broadcaster.
func (l *ChanLink) Broadcast(from wire.NodeID, payload []byte) error {
	l.mesh.broadcast(l, from, payload)
	return nil
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
