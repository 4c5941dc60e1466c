// Package cluster is the arenaescape fixture: carved values must stay
// inside their owner's object graph, and free-listed blocks must not be
// touched after release.
package cluster

type NodeID uint32

// Protocol owns a bump arena and a block free list, mirroring the real
// cluster/intercluster allocators.
type Protocol struct {
	idArena  []NodeID
	view     View
	stash    []NodeID
	jobFree  []*job
	reports  map[NodeID]*state
	oldViews []View
}

type View struct {
	Members []NodeID
}

type state struct {
	ids []NodeID
}

type job struct {
	step int
}

// Sink is a non-owner: it has no stake in the arena's generations.
type Sink struct {
	slots []NodeID
}

var lastCarved []NodeID

// carveIDs is the bump-allocation verb the analyzer keys on.
func (p *Protocol) carveIDs(src []NodeID) []NodeID {
	n := len(p.idArena)
	p.idArena = append(p.idArena, src...)
	return p.idArena[n:len(p.idArena):len(p.idArena)]
}

// --- firing -----------------------------------------------------------------

// badDirect stores a carved slice into a non-owner's field.
func (p *Protocol) badDirect(sink *Sink, src []NodeID) {
	v := p.carveIDs(src)
	sink.slots = v // want `arena-carved value stored in field sink\.slots`
}

// badArenaRead retains the backing store itself.
func (p *Protocol) badArenaRead(sink *Sink) {
	sink.slots = p.idArena // want `arena-carved value stored in field sink\.slots`
}

// badSend detaches a carved slice from the generation discipline entirely.
func (p *Protocol) badSend(ch chan []NodeID, src []NodeID) {
	ch <- p.carveIDs(src) // want `arena-carved value .* sent on a channel`
}

// badClosure hands a carved slice to a closure that outlives the call.
func (p *Protocol) badClosure(src []NodeID) func() int {
	v := p.carveIDs(src)
	return func() int { return len(v) } // want `arena-carved value captured by a closure`
}

// badHelper is the cross-function retention bug: the store is hidden one
// call away, invisible to a purely intra-procedural engine, and caught at
// the call site by the callee's summary.
func (p *Protocol) badHelper(sink *Sink, src []NodeID) {
	v := p.carveIDs(src)
	sink.keep(v) // want `arena-carved value stored into sink's object graph by keep`
}

func (s *Sink) keep(ids []NodeID) {
	s.slots = ids
}

// badGlobalHelper leaks through a helper into a package variable.
func (p *Protocol) badGlobalHelper(src []NodeID) {
	v := p.carveIDs(src)
	publish(v) // want `arena-carved value passed to publish, which retains it beyond the call`
}

func publish(ids []NodeID) {
	lastCarved = ids
}

// badUseAfterFree touches a block after appending it to the free list.
func (p *Protocol) badUseAfterFree(j *job) {
	p.jobFree = append(p.jobFree, j)
	j.step = 0 // want `use of j after it was returned to jobFree`
}

// --- non-firing -------------------------------------------------------------

// goodOwnerStore: the owner retains its own storage by construction.
func (p *Protocol) goodOwnerStore(src []NodeID) {
	p.view.Members = p.carveIDs(src)
}

// goodDerived: storage handed out by the owner is still the owner's graph.
func (p *Protocol) goodDerived(id NodeID, src []NodeID) {
	st := p.newState()
	st.ids = p.carveIDs(src)
	p.reports[id] = st
}

func (p *Protocol) newState() *state {
	if n := len(p.jobFree); n > 0 {
		_ = n
	}
	return &state{}
}

// goodCopy: the encode-copies-bytes-out pattern (§12 rule 5) — copying
// elements of a non-retaining element type launders the taint.
func (p *Protocol) goodCopy(sink *Sink, src []NodeID) {
	v := p.carveIDs(src)
	sink.slots = append([]NodeID(nil), v...)
}

// goodReturn: View()-style handout under the two-generation contract.
func (p *Protocol) goodReturn(src []NodeID) []NodeID {
	return p.carveIDs(src)
}

// goodSend: passing carved memory to a synchronous callee that retains
// nothing (the transport encodes before returning).
func (p *Protocol) goodSend(src []NodeID) int {
	v := p.carveIDs(src)
	return encode(v)
}

func encode(ids []NodeID) int {
	n := 0
	for range ids {
		n++
	}
	return n
}

// goodFreeLast: release-last ordering is the legal free-list discipline.
func (p *Protocol) goodFreeLast(j *job) {
	j.step = 0
	p.jobFree = append(p.jobFree, j)
}

// goodRebind: taking a fresh block after the release ends the hazard.
func (p *Protocol) goodRebind(j *job) int {
	p.jobFree = append(p.jobFree, j)
	j = &job{}
	return j.step
}
