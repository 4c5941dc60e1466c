// Package fds plants one finding for each of the three lifetime analyzers.
package fds

import "clusterfds/internal/wire"

type Protocol struct {
	update  wire.Message
	last    wire.Message
	scratch *wire.DecodeScratch
	idArena []wire.NodeID
}

// Handle keeps the delivered message past the call: deliverretain.
func (p *Protocol) Handle(m wire.Message, from wire.NodeID) { p.update = m }

// decode keeps the scratch-backed result past the decode: scratchalias.
func (p *Protocol) decode(b []byte) {
	m, _ := wire.DecodeInto(p.scratch, b)
	p.last = m
}

func (p *Protocol) carveIDs(n int) []wire.NodeID { return p.idArena[:n:n] }

// publish sends arena memory where no generation reset can follow it:
// arenaescape.
func (p *Protocol) publish(ch chan []wire.NodeID) { ch <- p.carveIDs(4) }
