// Package wire defines the messages exchanged by the cluster-formation
// algorithm, the failure detection service, the inter-cluster forwarding
// machinery, and the baseline detectors, together with a compact binary
// codec.
//
// Messages are encoded explicitly (rather than passed as Go pointers)
// because encoded size is an input to the radio medium's energy model and
// because a lost/duplicated message must not alias state between hosts. The
// paper assumes messages are never created or altered in transit
// (Section 2.2); the codec's round-trip property tests pin that down.
package wire

import (
	"fmt"
	"math"
)

// NodeID identifies a host. The paper calls this the NID and assumes it is
// globally unique in the network. IDs participate in clusterhead election
// (lowest NID wins) and in the energy-balanced peer-forwarding backoff.
type NodeID uint32

// NoNode is the zero NodeID, used as an explicit "no such node" sentinel.
// Valid node IDs start at 1, per the style rule that enums/IDs start at one
// so the zero value is detectably unset.
const NoNode NodeID = 0

// String implements fmt.Stringer.
func (id NodeID) String() string {
	if id == NoNode {
		return "n∅"
	}
	return fmt.Sprintf("n%d", uint32(id))
}

// Epoch numbers an execution of the FDS: the k-th heartbeat interval since
// deployment. All FDS messages carry the epoch so stragglers from a previous
// execution are never confused with the current one.
type Epoch uint64

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. They start at 1 so a zero byte is never a valid message.
const (
	KindHeartbeat Kind = iota + 1
	KindDigest
	KindHealthUpdate
	KindForwardRequest
	KindForwardedUpdate
	KindForwardAck
	KindFailureReport
	KindCHDeclare
	KindClusterAnnounce
	KindGWRegister
	KindGossip
	KindFloodHeartbeat
	KindAggregate
	KindSleepNotice
	KindSWIMPing
	KindSWIMPingReq
	KindSWIMAck
	KindFDQuery
	KindFDResponse
	KindAllPairsHeartbeat

	kindEnd // one past the last valid kind
)

// KindEnd is one past the last valid message kind, for callers that iterate
// the kind space (per-kind counters, epoch series).
const KindEnd = kindEnd

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindHeartbeat:
		return "heartbeat"
	case KindDigest:
		return "digest"
	case KindHealthUpdate:
		return "health-update"
	case KindForwardRequest:
		return "forward-request"
	case KindForwardedUpdate:
		return "forwarded-update"
	case KindForwardAck:
		return "forward-ack"
	case KindFailureReport:
		return "failure-report"
	case KindCHDeclare:
		return "ch-declare"
	case KindClusterAnnounce:
		return "cluster-announce"
	case KindGWRegister:
		return "gw-register"
	case KindGossip:
		return "gossip"
	case KindFloodHeartbeat:
		return "flood-heartbeat"
	case KindAggregate:
		return "aggregate"
	case KindSleepNotice:
		return "sleep-notice"
	case KindSWIMPing:
		return "swim-ping"
	case KindSWIMPingReq:
		return "swim-ping-req"
	case KindSWIMAck:
		return "swim-ack"
	case KindFDQuery:
		return "fd-query"
	case KindFDResponse:
		return "fd-response"
	case KindAllPairsHeartbeat:
		return "allpairs-heartbeat"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Rescission withdraws a previously announced failure detection: Node was
// announced failed in (or before) Epoch, and its clusterhead has since heard
// it alive. The epoch is pinned to the withdrawn detection so a relayed
// rescission can never cancel a LATER, genuine detection of the same node.
type Rescission struct {
	Node  NodeID
	Epoch Epoch
}

func appendRescissions(b []byte, rs []Rescission) []byte {
	if len(rs) > math.MaxUint16 {
		panic("wire: rescission list too long")
	}
	b = appendU16(b, uint16(len(rs)))
	for _, r := range rs {
		b = appendU32(b, uint32(r.Node))
		b = appendU64(b, uint64(r.Epoch))
	}
	return b
}

func readRescissions(b []byte, s *DecodeScratch) ([]Rescission, []byte, error) {
	n, b, err := readU16(b)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, b, nil
	}
	if len(b) < int(n)*12 {
		return nil, nil, errShort
	}
	var rs []Rescission
	if s != nil {
		rs = s.rescissions.take(int(n))
	} else {
		rs = make([]Rescission, n)
	}
	for i := range rs {
		var u32 uint32
		var u64 uint64
		u32, b, _ = readU32(b)
		u64, b, _ = readU64(b)
		rs[i] = Rescission{Node: NodeID(u32), Epoch: Epoch(u64)}
	}
	return rs, b, nil
}

// Message is the interface implemented by everything that can cross the
// radio medium.
type Message interface {
	// Kind returns the wire discriminator for the message.
	Kind() Kind
	// WireSize returns the encoded length in bytes, including the kind
	// byte. The radio's energy model charges per byte.
	WireSize() int
	// append encodes the body (everything after the kind byte) onto b.
	append(b []byte) []byte
	// decode parses the body from b, returning the remaining bytes. When s
	// is non-nil, variable-length fields are carved from s's arenas instead
	// of freshly allocated; the decoded message then aliases s and is valid
	// only until s's next DecodeInto call.
	decode(b []byte, s *DecodeScratch) ([]byte, error)
}

// --- FDS round 1: heartbeat exchange -----------------------------------

// Heartbeat is the fds.R-1 message: "a heartbeat message which contains the
// sender's NID and a one-bit mark indicator". Marked indicates the sender
// has been admitted to a cluster; unmarked heartbeats drive further
// cluster-formation iterations and membership subscription (feature F5).
type Heartbeat struct {
	NID    NodeID
	Epoch  Epoch
	Marked bool
}

// Kind implements Message.
func (*Heartbeat) Kind() Kind { return KindHeartbeat }

// WireSize implements Message.
func (*Heartbeat) WireSize() int { return 1 + 4 + 8 + 1 }

func (m *Heartbeat) append(b []byte) []byte {
	b = appendU32(b, uint32(m.NID))
	b = appendU64(b, uint64(m.Epoch))
	return appendBool(b, m.Marked)
}

func (m *Heartbeat) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var u64 uint64
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.NID = NodeID(u32)
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Epoch = Epoch(u64)
	if m.Marked, b, err = readBool(b); err != nil {
		return nil, err
	}
	return b, nil
}

// --- FDS round 2: digest exchange ---------------------------------------

// Digest is the fds.R-2 message: the set of cluster members from which the
// sender heard (or overheard) heartbeats during fds.R-1. The sender's own
// liveness is implied by the digest's existence. CH names the sender's
// cluster affiliation; overhearing a digest from a foreign cluster is how a
// border node learns it can serve as a distributed (two-hop) gateway when
// no single node hears both clusterheads — the fallback gateway form the
// paper describes in Section 3.
//
// The list is addressed to the judges (the clusterhead and its deputies,
// Section 4.2); every other member of the cluster overhears the digest and
// ignores the list. Heard is therefore the field a sender fills and Decode
// returns, and DecodeInto leaves it nil: it validates the list where it lies
// and its scratch keeps a view of those datagram bytes instead, so a receiver
// pays for the IDs only if it asks for them. A received digest is read
// through HeardCount and HeardIDs, which serve both forms.
type Digest struct {
	NID   NodeID
	CH    NodeID
	Epoch Epoch
	Heard []NodeID
	// HasReading/Reading piggyback a sensor measurement on the digest —
	// the "message sharing between failure detection and data
	// aggregation" the paper's Section 6 anticipates: the aggregation
	// service rides the FDS's round-2 traffic for free.
	HasReading bool
	Reading    float64

	// scratch is non-nil exactly on the digest a DecodeInto produced: the
	// workspace that holds the view of its list (DecodeScratch.heard) and
	// that HeardIDs materialises it into. One pointer, so the struct stays in
	// its 64-byte size class.
	scratch *DecodeScratch
}

// Kind implements Message.
func (*Digest) Kind() Kind { return KindDigest }

// WireSize implements Message.
func (m *Digest) WireSize() int { return 1 + 4 + 4 + 8 + 2 + 4*m.HeardCount() + 1 + 8 }

// HeardCount returns how many IDs the digest lists.
func (m *Digest) HeardCount() int {
	if m.scratch != nil {
		return len(m.scratch.heard) / 4
	}
	return len(m.Heard)
}

// HeardIDs returns the listed IDs in wire order. On a DecodeInto digest each
// call decodes them into the receiver's scratch: the result dies, like the
// message, at the next DecodeInto on that scratch, and must be copied to be
// kept.
func (m *Digest) HeardIDs() []NodeID {
	if m.scratch != nil {
		return decodeIDs(m.scratch.heard, m.scratch)
	}
	return m.Heard
}

func (m *Digest) append(b []byte) []byte {
	b = appendU32(b, uint32(m.NID))
	b = appendU32(b, uint32(m.CH))
	b = appendU64(b, uint64(m.Epoch))
	if m.scratch != nil {
		b = appendU16(b, uint16(m.HeardCount()))
		b = append(b, m.scratch.heard...)
	} else {
		b = appendIDs(b, m.Heard)
	}
	b = appendBool(b, m.HasReading)
	return appendU64(b, math.Float64bits(m.Reading))
}

func (m *Digest) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var u64 uint64
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.NID = NodeID(u32)
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.CH = NodeID(u32)
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Epoch = Epoch(u64)
	var list []byte
	if list, b, err = idList(b); err != nil {
		return nil, err
	}
	m.Heard, m.scratch = nil, s
	if s != nil {
		s.heard = list
	} else {
		m.Heard = decodeIDs(list, nil)
	}
	if m.HasReading, b, err = readBool(b); err != nil {
		return nil, err
	}
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Reading = math.Float64frombits(u64)
	return b, nil
}

// --- FDS round 3: health-status update ----------------------------------

// HealthUpdate is the fds.R-3 broadcast from the CH (or, on CH failure, from
// the highest-ranked DCH): the cluster health status listing newly detected
// failed nodes this epoch. AllFailed carries the cluster's cumulative failed
// set so late joiners and message-loss victims can catch up.
type HealthUpdate struct {
	From      NodeID // CH, or the DCH that took over
	CH        NodeID // the clusterhead this update speaks for
	Epoch     Epoch
	NewFailed []NodeID
	AllFailed []NodeID
	// Rescinded lists previously announced failures the CH has withdrawn:
	// under fail-stop, hearing a heartbeat from an allegedly failed node
	// proves the detection was false. Rescind propagation is this
	// implementation's extension beyond the paper (see DESIGN.md).
	Rescinded []Rescission
	Takeover  bool // set when a DCH announces a CH failure and takes over
}

// Kind implements Message.
func (*HealthUpdate) Kind() Kind { return KindHealthUpdate }

// WireSize implements Message.
func (m *HealthUpdate) WireSize() int {
	return 1 + 4 + 4 + 8 + (2 + 4*len(m.NewFailed)) + (2 + 4*len(m.AllFailed)) +
		(2 + 12*len(m.Rescinded)) + 1
}

func (m *HealthUpdate) append(b []byte) []byte {
	b = appendU32(b, uint32(m.From))
	b = appendU32(b, uint32(m.CH))
	b = appendU64(b, uint64(m.Epoch))
	b = appendIDs(b, m.NewFailed)
	b = appendIDs(b, m.AllFailed)
	b = appendRescissions(b, m.Rescinded)
	return appendBool(b, m.Takeover)
}

func (m *HealthUpdate) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var u64 uint64
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.From = NodeID(u32)
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.CH = NodeID(u32)
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Epoch = Epoch(u64)
	if m.NewFailed, b, err = readIDs(b, s); err != nil {
		return nil, err
	}
	if m.AllFailed, b, err = readIDs(b, s); err != nil {
		return nil, err
	}
	if m.Rescinded, b, err = readRescissions(b, s); err != nil {
		return nil, err
	}
	if m.Takeover, b, err = readBool(b); err != nil {
		return nil, err
	}
	return b, nil
}

// --- Intra-cluster peer forwarding (completeness enhancement) ------------

// ForwardRequest is broadcast by a node that reached the end of fds.R-3
// without receiving the CH's health update, asking in-cluster neighbors to
// forward it (Section 4.2, "Intra-Cluster Completeness Enhancement").
type ForwardRequest struct {
	NID   NodeID
	Epoch Epoch
}

// Kind implements Message.
func (*ForwardRequest) Kind() Kind { return KindForwardRequest }

// WireSize implements Message.
func (*ForwardRequest) WireSize() int { return 1 + 4 + 8 }

func (m *ForwardRequest) append(b []byte) []byte {
	b = appendU32(b, uint32(m.NID))
	return appendU64(b, uint64(m.Epoch))
}

func (m *ForwardRequest) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var u64 uint64
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.NID = NodeID(u32)
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Epoch = Epoch(u64)
	return b, nil
}

// ForwardedUpdate is a peer's retransmission of the CH's health update in
// response to a ForwardRequest (or proactively, when a DCH's digest showed
// it cannot reach the requester).
type ForwardedUpdate struct {
	Forwarder NodeID
	Requester NodeID
	Update    HealthUpdate
}

// Kind implements Message.
func (*ForwardedUpdate) Kind() Kind { return KindForwardedUpdate }

// WireSize implements Message.
func (m *ForwardedUpdate) WireSize() int { return 1 + 4 + 4 + m.Update.WireSize() - 1 }

func (m *ForwardedUpdate) append(b []byte) []byte {
	b = appendU32(b, uint32(m.Forwarder))
	b = appendU32(b, uint32(m.Requester))
	return m.Update.append(b)
}

func (m *ForwardedUpdate) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.Forwarder = NodeID(u32)
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.Requester = NodeID(u32)
	return m.Update.decode(b, s)
}

// ForwardAck is the requester's acknowledgment of a ForwardedUpdate; peers
// still waiting out their backoff quit upon overhearing it.
type ForwardAck struct {
	NID   NodeID
	Epoch Epoch
}

// Kind implements Message.
func (*ForwardAck) Kind() Kind { return KindForwardAck }

// WireSize implements Message.
func (*ForwardAck) WireSize() int { return 1 + 4 + 8 }

func (m *ForwardAck) append(b []byte) []byte {
	b = appendU32(b, uint32(m.NID))
	return appendU64(b, uint64(m.Epoch))
}

func (m *ForwardAck) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var u64 uint64
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.NID = NodeID(u32)
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Epoch = Epoch(u64)
	return b, nil
}

// --- Inter-cluster failure report forwarding ------------------------------

// FailureReport carries locally detected failures across clusters over the
// CH–GW–CH backbone (Section 4.3). In addition to the newly detected failed
// nodes it "may also include the NIDs of the previously detected failed
// nodes" to improve completeness. Seq is assigned by the origin CH;
// (OriginCH, Seq) de-duplicates flooding. Sender names the hop's
// transmitter so implicit acknowledgments can be recognized by overhearing.
type FailureReport struct {
	OriginCH  NodeID
	Seq       uint64
	Epoch     Epoch
	NewFailed []NodeID
	AllFailed []NodeID
	// Rescinded carries withdrawn detections across clusters (the rescind
	// propagation extension; see HealthUpdate.Rescinded).
	Rescinded []Rescission
	Sender    NodeID
	TargetCH  NodeID // next-hop cluster head (NoNode = any)
}

// Kind implements Message.
func (*FailureReport) Kind() Kind { return KindFailureReport }

// WireSize implements Message.
func (m *FailureReport) WireSize() int {
	return 1 + 4 + 8 + 8 + (2 + 4*len(m.NewFailed)) + (2 + 4*len(m.AllFailed)) +
		(2 + 12*len(m.Rescinded)) + 4 + 4
}

func (m *FailureReport) append(b []byte) []byte {
	b = appendU32(b, uint32(m.OriginCH))
	b = appendU64(b, m.Seq)
	b = appendU64(b, uint64(m.Epoch))
	b = appendIDs(b, m.NewFailed)
	b = appendIDs(b, m.AllFailed)
	b = appendRescissions(b, m.Rescinded)
	b = appendU32(b, uint32(m.Sender))
	return appendU32(b, uint32(m.TargetCH))
}

func (m *FailureReport) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var u64 uint64
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.OriginCH = NodeID(u32)
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Seq = u64
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Epoch = Epoch(u64)
	if m.NewFailed, b, err = readIDs(b, s); err != nil {
		return nil, err
	}
	if m.AllFailed, b, err = readIDs(b, s); err != nil {
		return nil, err
	}
	if m.Rescinded, b, err = readRescissions(b, s); err != nil {
		return nil, err
	}
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.Sender = NodeID(u32)
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.TargetCH = NodeID(u32)
	return b, nil
}

// --- Cluster formation ----------------------------------------------------

// CHDeclare announces that the sender has elected itself clusterhead
// (lowest NID in its unmarked one-hop neighborhood, possibly after
// RCC-style random-competition backoff).
type CHDeclare struct {
	CH        NodeID
	Iteration uint32
}

// Kind implements Message.
func (*CHDeclare) Kind() Kind { return KindCHDeclare }

// WireSize implements Message.
func (*CHDeclare) WireSize() int { return 1 + 4 + 4 }

func (m *CHDeclare) append(b []byte) []byte {
	b = appendU32(b, uint32(m.CH))
	return appendU32(b, m.Iteration)
}

func (m *CHDeclare) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.CH = NodeID(u32)
	if m.Iteration, b, err = readU32(b); err != nil {
		return nil, err
	}
	return b, nil
}

// ClusterAnnounce is the CH's cluster-organization announcement: the member
// list and the ranked deputy clusterheads (feature F2). Every member learns
// its initial local-membership view from this message (Section 4.2).
type ClusterAnnounce struct {
	CH      NodeID
	Epoch   Epoch
	Members []NodeID
	DCHs    []NodeID // ranked best-first
}

// Kind implements Message.
func (*ClusterAnnounce) Kind() Kind { return KindClusterAnnounce }

// WireSize implements Message.
func (m *ClusterAnnounce) WireSize() int {
	return 1 + 4 + 8 + (2 + 4*len(m.Members)) + (2 + 4*len(m.DCHs))
}

func (m *ClusterAnnounce) append(b []byte) []byte {
	b = appendU32(b, uint32(m.CH))
	b = appendU64(b, uint64(m.Epoch))
	b = appendIDs(b, m.Members)
	return appendIDs(b, m.DCHs)
}

func (m *ClusterAnnounce) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var u64 uint64
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.CH = NodeID(u32)
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Epoch = Epoch(u64)
	if m.Members, b, err = readIDs(b, s); err != nil {
		return nil, err
	}
	if m.DCHs, b, err = readIDs(b, s); err != nil {
		return nil, err
	}
	return b, nil
}

// GWRegister is sent by a node that hears the CHs of two or more clusters to
// its affiliated CH (the lowest-NID CH it hears — feature F3 requires each
// gateway to affiliate with exactly one cluster). The CH uses these to rank
// the gateway and backup gateways toward each neighboring cluster.
type GWRegister struct {
	GW          NodeID
	AffiliateCH NodeID
	OtherCHs    []NodeID
}

// Kind implements Message.
func (*GWRegister) Kind() Kind { return KindGWRegister }

// WireSize implements Message.
func (m *GWRegister) WireSize() int { return 1 + 4 + 4 + 2 + 4*len(m.OtherCHs) }

func (m *GWRegister) append(b []byte) []byte {
	b = appendU32(b, uint32(m.GW))
	b = appendU32(b, uint32(m.AffiliateCH))
	return appendIDs(b, m.OtherCHs)
}

func (m *GWRegister) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.GW = NodeID(u32)
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.AffiliateCH = NodeID(u32)
	if m.OtherCHs, b, err = readIDs(b, s); err != nil {
		return nil, err
	}
	return b, nil
}

// --- Baseline detectors -----------------------------------------------------

// GossipEntry is one row of a gossip-style failure detector's table: the
// highest heartbeat counter the sender has seen for NID (van Renesse et al.,
// cited as [11] by the paper).
type GossipEntry struct {
	NID       NodeID
	Heartbeat uint64
}

// Gossip is the baseline gossip detector's state exchange.
type Gossip struct {
	From    NodeID
	Entries []GossipEntry
}

// Kind implements Message.
func (*Gossip) Kind() Kind { return KindGossip }

// WireSize implements Message.
func (m *Gossip) WireSize() int { return 1 + 4 + 2 + 12*len(m.Entries) }

func (m *Gossip) append(b []byte) []byte {
	b = appendU32(b, uint32(m.From))
	if len(m.Entries) > math.MaxUint16 {
		panic("wire: gossip entry list too long")
	}
	b = appendU16(b, uint16(len(m.Entries)))
	for _, e := range m.Entries {
		b = appendU32(b, uint32(e.NID))
		b = appendU64(b, e.Heartbeat)
	}
	return b
}

func (m *Gossip) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u16 uint16
	var u32 uint32
	var u64 uint64
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.From = NodeID(u32)
	if u16, b, err = readU16(b); err != nil {
		return nil, err
	}
	if len(b) < int(u16)*12 {
		return nil, errShort
	}
	if s != nil {
		m.Entries = s.entries.take(int(u16))
	} else {
		m.Entries = make([]GossipEntry, u16)
	}
	for i := range m.Entries {
		if u32, b, err = readU32(b); err != nil {
			return nil, err
		}
		if u64, b, err = readU64(b); err != nil {
			return nil, err
		}
		m.Entries[i] = GossipEntry{NID: NodeID(u32), Heartbeat: u64}
	}
	return b, nil
}

// FloodHeartbeat is the baseline flat-flooding detector's heartbeat, relayed
// network-wide with a TTL. It exists to measure the message cost the paper's
// Section 3 argues clustering avoids.
type FloodHeartbeat struct {
	Origin NodeID
	Seq    uint64
	TTL    uint8
	Relay  NodeID
}

// Kind implements Message.
func (*FloodHeartbeat) Kind() Kind { return KindFloodHeartbeat }

// WireSize implements Message.
func (*FloodHeartbeat) WireSize() int { return 1 + 4 + 8 + 1 + 4 }

func (m *FloodHeartbeat) append(b []byte) []byte {
	b = appendU32(b, uint32(m.Origin))
	b = appendU64(b, m.Seq)
	b = append(b, m.TTL)
	return appendU32(b, uint32(m.Relay))
}

func (m *FloodHeartbeat) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var u64 uint64
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.Origin = NodeID(u32)
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Seq = u64
	if len(b) < 1 {
		return nil, errShort
	}
	m.TTL = b[0]
	b = b[1:]
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.Relay = NodeID(u32)
	return b, nil
}

// Aggregate is a cluster's partial aggregate of its members' sensor
// readings for one epoch, flooded across the backbone so every clusterhead
// can assemble the global min/max/mean — the in-network aggregation use the
// paper's Section 6 sketches on top of the cluster architecture. Sender
// names the transmitting hop (for de-duplication and gateway triggering),
// OriginCH the cluster the partial describes.
type Aggregate struct {
	OriginCH NodeID
	Epoch    Epoch
	Count    uint32
	Sum      float64
	Min      float64
	Max      float64
	Sender   NodeID
}

// Kind implements Message.
func (*Aggregate) Kind() Kind { return KindAggregate }

// WireSize implements Message.
func (*Aggregate) WireSize() int { return 1 + 4 + 8 + 4 + 8 + 8 + 8 + 4 }

func (m *Aggregate) append(b []byte) []byte {
	b = appendU32(b, uint32(m.OriginCH))
	b = appendU64(b, uint64(m.Epoch))
	b = appendU32(b, m.Count)
	b = appendU64(b, math.Float64bits(m.Sum))
	b = appendU64(b, math.Float64bits(m.Min))
	b = appendU64(b, math.Float64bits(m.Max))
	return appendU32(b, uint32(m.Sender))
}

func (m *Aggregate) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var u64 uint64
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.OriginCH = NodeID(u32)
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Epoch = Epoch(u64)
	if m.Count, b, err = readU32(b); err != nil {
		return nil, err
	}
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Sum = math.Float64frombits(u64)
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Min = math.Float64frombits(u64)
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Max = math.Float64frombits(u64)
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.Sender = NodeID(u32)
	return b, nil
}

// SleepNotice announces a member's intent to duty-cycle its radio: it will
// be silent from the next epoch until (and excluding) epoch Until. The
// clusterhead excuses announced sleepers from the failure detection rule —
// the paper's Section 6 concern that "sleep mode may cause false
// detections" and its plan to derive "algorithms to reduce the likelihood
// of sleep-mode-caused false detection".
type SleepNotice struct {
	NID   NodeID
	Epoch Epoch // the epoch in which the notice was issued
	Until Epoch // first epoch the sender will be awake again
}

// Kind implements Message.
func (*SleepNotice) Kind() Kind { return KindSleepNotice }

// WireSize implements Message.
func (*SleepNotice) WireSize() int { return 1 + 4 + 8 + 8 }

func (m *SleepNotice) append(b []byte) []byte {
	b = appendU32(b, uint32(m.NID))
	b = appendU64(b, uint64(m.Epoch))
	return appendU64(b, uint64(m.Until))
}

func (m *SleepNotice) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var u64 uint64
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.NID = NodeID(u32)
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Epoch = Epoch(u64)
	if u64, b, err = readU64(b); err != nil {
		return nil, err
	}
	m.Until = Epoch(u64)
	return b, nil
}

// --- Competing failure detectors (SWIM, query-response, all-pairs) ----------

// SWIMEvent is one piggybacked membership rumor: Node is suspected failed
// (Failed=true) or known alive again (Failed=false). SWIM disseminates these
// on the backs of its probe traffic instead of flooding them.
type SWIMEvent struct {
	Node   NodeID
	Failed bool
}

const swimEventSize = 4 + 1

func appendEvents(b []byte, evs []SWIMEvent) []byte {
	if len(evs) > math.MaxUint16 {
		panic("wire: SWIM event list too long")
	}
	b = appendU16(b, uint16(len(evs)))
	for _, e := range evs {
		b = appendU32(b, uint32(e.Node))
		b = appendBool(b, e.Failed)
	}
	return b
}

func readEvents(b []byte, s *DecodeScratch) ([]SWIMEvent, []byte, error) {
	u16, b, err := readU16(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < int(u16)*swimEventSize {
		return nil, nil, errShort
	}
	var evs []SWIMEvent
	if s != nil {
		evs = s.events.take(int(u16))
	} else {
		evs = make([]SWIMEvent, u16)
	}
	for i := range evs {
		var u32 uint32
		var fl bool
		if u32, b, err = readU32(b); err != nil {
			return nil, nil, err
		}
		if fl, b, err = readBool(b); err != nil {
			return nil, nil, err
		}
		evs[i] = SWIMEvent{Node: NodeID(u32), Failed: fl}
	}
	return evs, b, nil
}

// SWIMPing is SWIM's direct probe. When OnBehalf is non-zero the ping is a
// proxy probe issued by an intermediary for the indirect-probe path, and the
// ack must be routed back to OnBehalf.
type SWIMPing struct {
	From     NodeID
	Target   NodeID
	Seq      uint64
	OnBehalf NodeID
	Events   []SWIMEvent
}

// Kind implements Message.
func (*SWIMPing) Kind() Kind { return KindSWIMPing }

// WireSize implements Message.
func (m *SWIMPing) WireSize() int { return 1 + 4 + 4 + 8 + 4 + 2 + swimEventSize*len(m.Events) }

func (m *SWIMPing) append(b []byte) []byte {
	b = appendU32(b, uint32(m.From))
	b = appendU32(b, uint32(m.Target))
	b = appendU64(b, m.Seq)
	b = appendU32(b, uint32(m.OnBehalf))
	return appendEvents(b, m.Events)
}

func (m *SWIMPing) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.From = NodeID(u32)
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.Target = NodeID(u32)
	if m.Seq, b, err = readU64(b); err != nil {
		return nil, err
	}
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.OnBehalf = NodeID(u32)
	if m.Events, b, err = readEvents(b, s); err != nil {
		return nil, err
	}
	return b, nil
}

// SWIMPingReq asks the Via members to probe Target on the sender's behalf
// after a direct probe timed out (SWIM's indirect-probe stage, which filters
// out local link asymmetry before declaring a failure).
type SWIMPingReq struct {
	From   NodeID
	Target NodeID
	Seq    uint64
	Via    []NodeID
	Events []SWIMEvent
}

// Kind implements Message.
func (*SWIMPingReq) Kind() Kind { return KindSWIMPingReq }

// WireSize implements Message.
func (m *SWIMPingReq) WireSize() int {
	return 1 + 4 + 4 + 8 + 2 + 4*len(m.Via) + 2 + swimEventSize*len(m.Events)
}

func (m *SWIMPingReq) append(b []byte) []byte {
	b = appendU32(b, uint32(m.From))
	b = appendU32(b, uint32(m.Target))
	b = appendU64(b, m.Seq)
	b = appendIDs(b, m.Via)
	return appendEvents(b, m.Events)
}

func (m *SWIMPingReq) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.From = NodeID(u32)
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.Target = NodeID(u32)
	if m.Seq, b, err = readU64(b); err != nil {
		return nil, err
	}
	if m.Via, b, err = readIDs(b, s); err != nil {
		return nil, err
	}
	if m.Events, b, err = readEvents(b, s); err != nil {
		return nil, err
	}
	return b, nil
}

// SWIMAck answers a SWIMPing. To names the node the ack is addressed to (the
// prober or a proxy); OnBehalf, when non-zero, carries the identity of the
// indirectly-probed target so the original requester can match the ack.
type SWIMAck struct {
	From     NodeID
	To       NodeID
	Seq      uint64
	OnBehalf NodeID
	Events   []SWIMEvent
}

// Kind implements Message.
func (*SWIMAck) Kind() Kind { return KindSWIMAck }

// WireSize implements Message.
func (m *SWIMAck) WireSize() int { return 1 + 4 + 4 + 8 + 4 + 2 + swimEventSize*len(m.Events) }

func (m *SWIMAck) append(b []byte) []byte {
	b = appendU32(b, uint32(m.From))
	b = appendU32(b, uint32(m.To))
	b = appendU64(b, m.Seq)
	b = appendU32(b, uint32(m.OnBehalf))
	return appendEvents(b, m.Events)
}

func (m *SWIMAck) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.From = NodeID(u32)
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.To = NodeID(u32)
	if m.Seq, b, err = readU64(b); err != nil {
		return nil, err
	}
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.OnBehalf = NodeID(u32)
	if m.Events, b, err = readEvents(b, s); err != nil {
		return nil, err
	}
	return b, nil
}

// FDQuery is the Sens et al. query-response detector's probe: a broadcast
// "who is alive around me?" that needs no a-priori membership list — the
// detector discovers participants from whoever answers (or whose traffic it
// overhears), which is what makes it work under partial connectivity.
type FDQuery struct {
	From NodeID
	Seq  uint64
}

// Kind implements Message.
func (*FDQuery) Kind() Kind { return KindFDQuery }

// WireSize implements Message.
func (*FDQuery) WireSize() int { return 1 + 4 + 8 }

func (m *FDQuery) append(b []byte) []byte {
	b = appendU32(b, uint32(m.From))
	return appendU64(b, m.Seq)
}

func (m *FDQuery) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.From = NodeID(u32)
	if m.Seq, b, err = readU64(b); err != nil {
		return nil, err
	}
	return b, nil
}

// FDResponse answers an FDQuery. To echoes the querier so overhearers can
// attribute the response; Seq echoes the query's sequence number.
type FDResponse struct {
	From NodeID
	To   NodeID
	Seq  uint64
}

// Kind implements Message.
func (*FDResponse) Kind() Kind { return KindFDResponse }

// WireSize implements Message.
func (*FDResponse) WireSize() int { return 1 + 4 + 4 + 8 }

func (m *FDResponse) append(b []byte) []byte {
	b = appendU32(b, uint32(m.From))
	b = appendU32(b, uint32(m.To))
	return appendU64(b, m.Seq)
}

func (m *FDResponse) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.From = NodeID(u32)
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.To = NodeID(u32)
	if m.Seq, b, err = readU64(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AllPairsHeartbeat is the all-pairs strawman's one-hop heartbeat: every node
// broadcasts, every node within range monitors everyone it has ever heard.
// No relaying — the naive flat design the paper's Section 3 costs out.
type AllPairsHeartbeat struct {
	Origin NodeID
	Seq    uint64
}

// Kind implements Message.
func (*AllPairsHeartbeat) Kind() Kind { return KindAllPairsHeartbeat }

// WireSize implements Message.
func (*AllPairsHeartbeat) WireSize() int { return 1 + 4 + 8 }

func (m *AllPairsHeartbeat) append(b []byte) []byte {
	b = appendU32(b, uint32(m.Origin))
	return appendU64(b, m.Seq)
}

func (m *AllPairsHeartbeat) decode(b []byte, s *DecodeScratch) ([]byte, error) {
	var u32 uint32
	var err error
	if u32, b, err = readU32(b); err != nil {
		return nil, err
	}
	m.Origin = NodeID(u32)
	if m.Seq, b, err = readU64(b); err != nil {
		return nil, err
	}
	return b, nil
}
