package transport

import (
	"fmt"
	"sync"

	"clusterfds/internal/wire"
)

// chanLinkBuffer is the inbound queue depth of one ChanMesh port. Deep
// enough that a cooperative test draining between virtual steps never
// drops; a full queue drops like a full socket buffer would.
const chanLinkBuffer = 1024

// ChanMesh is a thread-safe in-process broadcast hub: every joined port's
// Broadcast is copied once and queued on every other port's inbound channel.
// It is the test stand-in for N UDP sockets on localhost — daemon tests run
// whole multi-node clusters in one process, with no real sockets and no wall
// time, and can model a vanished node by simply leaving the mesh.
//
// A received Packet's payload is read-only and may be shared by all
// receivers of one broadcast (see Packet); it never aliases the sender's
// buffer. Delivery is best-effort: a port whose inbound queue is full drops
// the datagram, exactly as a saturated socket buffer would.
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
	link := &ChanLink{mesh: cm, id: id, in: make(chan Packet, chanLinkBuffer)}
	cm.ports = append(cm.ports, link)
	return link
}

// leave removes a port. Called by ChanLink.Close.
func (cm *ChanMesh) leave(link *ChanLink) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	for i, p := range cm.ports {
		if p == link {
			cm.ports = append(cm.ports[:i], cm.ports[i+1:]...)
			return
		}
	}
}

// broadcast queues payload on every port except the sender's own.
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
		select {
		case p.in <- pkt:
		default:
			// Queue full: drop, like a saturated socket buffer.
		}
	}
}

// ChanLink is one port on a ChanMesh. It implements Link.
type ChanLink struct {
	mesh *ChanMesh
	id   wire.NodeID
	in   chan Packet

	closeOnce sync.Once
}

// ID returns the port's NID.
func (l *ChanLink) ID() wire.NodeID { return l.id }

// Broadcast implements Broadcaster.
func (l *ChanLink) Broadcast(from wire.NodeID, payload []byte) error {
	l.mesh.broadcast(l, from, payload)
	return nil
}

// Packets implements Link.
func (l *ChanLink) Packets() <-chan Packet { return l.in }

// Close implements Link: the port leaves the mesh and its packet channel is
// closed (after any queued datagrams are discarded by the receiver).
func (l *ChanLink) Close() error {
	l.closeOnce.Do(func() {
		l.mesh.leave(l)
		close(l.in)
	})
	return nil
}

var _ Link = (*ChanLink)(nil)
