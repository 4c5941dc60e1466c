package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"clusterfds/internal/wire"
)

// udpFrameHeader is the datagram framing: a 4-byte little-endian sender NID
// prefix, then the wire-encoded message. UDP source addresses are not
// identities (NAT, multi-homing), so the sender says who it is; the protocol
// stack treats the claim like any other untrusted field — the FDS tolerates
// lying nodes no worse than lossy ones, and undecodable payloads are
// rejected by LinkTransport.Inject.
const udpFrameHeader = 4

// udpReadBuffer comfortably exceeds the largest wire message.
const udpReadBuffer = 64 * 1024

// UDPLink is a Link over UDP datagrams: one socket, a static peer list, and
// a reader goroutine that queues inbound frames on the port's Inbox, dropping
// (like the kernel socket buffer would) rather than blocking when the
// daemon's event loop falls behind. It is the live-deployment backend behind
// cmd/fdsd.
type UDPLink struct {
	conn  *net.UDPConn
	peers []*net.UDPAddr

	in     Inbox
	rx     slabs // the reader goroutine's; what it queues is carved here
	runts  atomic.Int64
	txMu   sync.Mutex
	txBuf  []byte
	closed atomic.Bool

	closeOnce sync.Once
}

// NewUDPLink binds listen (e.g. "127.0.0.1:9001") and returns a link that
// broadcasts to the given peer addresses. The reader goroutine runs until
// Close.
func NewUDPLink(listen string, peerAddrs []string) (*UDPLink, error) {
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve listen %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", listen, err)
	}
	l := &UDPLink{conn: conn}
	l.in.init()
	for _, a := range peerAddrs {
		addr, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: resolve peer %q: %w", a, err)
		}
		l.peers = append(l.peers, addr)
	}
	go l.readLoop()
	return l, nil
}

// LocalAddr returns the bound socket address (useful with ":0" listens).
func (l *UDPLink) LocalAddr() net.Addr { return l.conn.LocalAddr() }

// readLoop pumps datagrams from the socket into the inbox until the socket is
// closed, then closes the inbox. Runs in its own goroutine; Read is the
// only blocking point and Close unblocks it. The source address is not read:
// the frame names its sender, and asking for the address would allocate one.
func (l *UDPLink) readLoop() {
	defer l.in.close()
	buf := make([]byte, udpReadBuffer)
	for {
		n, err := l.conn.Read(buf)
		if err != nil {
			return // closed socket (or fatal error): the link is done
		}
		if n < udpFrameHeader {
			l.runts.Add(1) // not even a sender NID
			continue
		}
		from := wire.NodeID(binary.LittleEndian.Uint32(buf[:udpFrameHeader]))
		l.in.push(Packet{From: from, Payload: l.rx.carve(buf[udpFrameHeader:n], &l.in)})
	}
}

// Broadcast implements Broadcaster: frame the payload and send one datagram
// to every peer. Send errors to individual peers are ignored — UDP is
// best-effort and a down peer is indistinguishable from a lossy link. After
// Close it sends nothing and returns net.ErrClosed.
func (l *UDPLink) Broadcast(from wire.NodeID, payload []byte) error {
	if l.closed.Load() {
		return net.ErrClosed
	}
	l.txMu.Lock()
	defer l.txMu.Unlock()
	l.txBuf = l.txBuf[:0]
	l.txBuf = binary.LittleEndian.AppendUint32(l.txBuf, uint32(from))
	l.txBuf = append(l.txBuf, payload...)
	for _, addr := range l.peers {
		_, _ = l.conn.WriteToUDP(l.txBuf, addr)
	}
	return nil
}

// Inbox implements Link.
func (l *UDPLink) Inbox() *Inbox { return &l.in }

// Runts returns how many received frames were too short to carry a sender
// NID. They never reach the inbox, so neither Inbox.Dropped nor
// LinkTransport.BadDatagrams counts them.
func (l *UDPLink) Runts() int64 { return l.runts.Load() }

// Close implements Link: closing the socket unblocks the reader, which
// closes the inbox.
func (l *UDPLink) Close() error {
	var err error
	l.closeOnce.Do(func() {
		l.closed.Store(true)
		err = l.conn.Close()
	})
	return err
}

var _ Link = (*UDPLink)(nil)
