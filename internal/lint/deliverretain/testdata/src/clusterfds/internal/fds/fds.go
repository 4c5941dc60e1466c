// Package fds is the deliverretain fixture. badHandle reproduces the exact
// pre-PR-4 fds update-retention bug shape (p.update = m on a delivered
// message); the good functions reproduce the PR-4 fixes (deep copy into a
// persistent buffer; per-field copy with slice reallocation).
package fds

import "clusterfds/internal/wire"

type key struct {
	origin wire.NodeID
	seq    uint64
}

type reportState struct {
	content wire.FailureReport
	senders map[wire.NodeID]bool
}

type Protocol struct {
	update      *wire.HealthUpdate
	updateStore wire.HealthUpdate
	lastFailed  []wire.NodeID
	lastEpoch   wire.Epoch
	heardCount  int
	reports     map[key]*reportState
	deferred    func()
	inbox       chan wire.Message
}

var lastSeen *wire.HealthUpdate

// Handle is the node.Protocol entry point: m is scratch-backed and valid
// only during this call.
func (p *Protocol) Handle(m wire.Message, from wire.NodeID) {
	switch msg := m.(type) {
	case *wire.HealthUpdate:
		p.badUpdate(msg)
		p.goodUpdate(msg)
		p.badReport(nil, msg)
		p.goodLocalWork(msg)
	case *wire.Digest:
		p.badDigest(msg)
		p.goodDigest(msg)
	case *wire.FailureReport:
		p.goodReport(msg)
		p.badClosure(msg)
		p.badGlobal(msg)
	}
}

// badUpdate is the pre-PR-4 bug: retaining the delivered pointer directly.
func (p *Protocol) badUpdate(m *wire.HealthUpdate) {
	p.update = m // want `delivered message stored in field p\.update`
	p.lastEpoch = m.Epoch
	p.lastFailed = m.NewFailed // want `delivered message stored in field p\.lastFailed`
}

// goodUpdate is the PR-4 fix: deep-copy into the persistent buffer; scalar
// fields copy freely; element copies of scalar slices launder the taint.
func (p *Protocol) goodUpdate(m *wire.HealthUpdate) {
	st := &p.updateStore
	st.From, st.CH, st.Epoch, st.Takeover = m.From, m.CH, m.Epoch, m.Takeover
	st.NewFailed = append(st.NewFailed[:0], m.NewFailed...)
	st.AllFailed = append(st.AllFailed[:0], m.AllFailed...)
	st.Rescinded = append(st.Rescinded[:0], m.Rescinded...)
	p.update = st
	p.lastEpoch = m.Epoch
}

// badDigest keeps what the accessor hands out: the list lives in the
// receiver's scratch (decoded from the datagram on demand) and dies with the
// message, whatever the method's body looks like from here.
func (p *Protocol) badDigest(m *wire.Digest) {
	ids := m.HeardIDs()
	p.lastFailed = ids // want `delivered message stored in field p\.lastFailed`
	p.heardCount = m.HeardCount()
}

// goodDigest copies the IDs first; the count is a scalar.
func (p *Protocol) goodDigest(m *wire.Digest) {
	p.lastFailed = append(p.lastFailed[:0], m.HeardIDs()...)
	p.heardCount = m.HeardCount()
}

// badReport stores a struct copy whose slices still alias the scratch.
func (p *Protocol) badReport(st *reportState, m *wire.HealthUpdate) {
	st.content = wire.FailureReport{ // want `delivered message stored in field st\.content`
		OriginCH:  m.From,
		Seq:       uint64(m.Epoch),
		NewFailed: m.NewFailed,
	}
}

// goodReport is the intercluster.getState pattern: a by-value parameter
// whose memory-carrying fields are all reassigned to owned copies before
// the struct is stored.
func (p *Protocol) goodReport(m *wire.FailureReport) {
	p.getState(key{origin: m.OriginCH, seq: m.Seq}, *m)
}

func (p *Protocol) getState(k key, content wire.FailureReport) *reportState {
	st, ok := p.reports[k]
	if !ok {
		content.Sender = 0
		content.TargetCH = 0
		content.NewFailed = append([]wire.NodeID(nil), content.NewFailed...)
		content.AllFailed = append([]wire.NodeID(nil), content.AllFailed...)
		content.Rescinded = append([]wire.Rescission(nil), content.Rescinded...)
		st = &reportState{content: content, senders: make(map[wire.NodeID]bool)}
		p.reports[k] = st
	}
	return st
}

// badClosure captures the delivered message in a callback that outlives the
// call (a timer firing later would read a recycled scratch).
func (p *Protocol) badClosure(m *wire.FailureReport) {
	p.deferred = func() {
		use(m.NewFailed) // want `delivered message captured by a closure`
	}
}

// badGlobal stores into a package variable and sends on a channel.
func (p *Protocol) badGlobal(m *wire.FailureReport) {
	p.inbox <- m // want `delivered message \(or memory reachable from it\) sent on a channel`
}

// badSecondHop shows taint following a same-package helper call chain out
// of Handle: keepRescissions is not named Deliver/Handle, but receives the
// delivered slice.
func (p *Protocol) Deliver(m wire.Message, from wire.NodeID) {
	if up, ok := m.(*wire.HealthUpdate); ok {
		p.keepRescissions(up.Rescinded)
	}
}

func (p *Protocol) keepRescissions(rs []wire.Rescission) {
	p.updateStore.Rescinded = rs // want `delivered message stored in field p\.updateStore\.Rescinded`
}

// goodLocalWork: purely local use of the message is fine.
func (p *Protocol) goodLocalWork(m *wire.HealthUpdate) int {
	n := 0
	for _, id := range m.NewFailed {
		if id != 0 {
			n++
		}
	}
	tmp := m.AllFailed
	n += len(tmp)
	return n
}

func use(ids []wire.NodeID) {}
