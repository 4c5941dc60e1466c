package baseline

import (
	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// QueryResponse is the Sens et al. style asynchronous query-response
// detector for networks with partial connectivity and unknown membership: a
// node periodically broadcasts "who is alive?", everyone in range answers,
// and the monitor list is whatever set of nodes it has ever heard — query,
// response, or overheard response alike. There is no relaying, so each node
// monitors exactly its radio neighborhood, which is the property that makes
// the design work when no node can see the whole system.
type QueryResponse struct {
	silence[sim.Time] // when each sender was last heard

	seq uint64

	// Steady-state scratch: every transport encodes at Send, so one query
	// and one response value are reused for every transmission, the tick
	// closure is bound once, and jittered responses draw pooled jobs
	// dispatched through AfterArg — the per-epoch loop allocates nothing.
	query  wire.FDQuery
	resp   wire.FDResponse
	tickFn func()
	jobs   recordPool[qrRespJob]
}

// qrRespJob carries one jittered response through AfterArg without a
// capturing closure; fired jobs return to the owning detector's pool.
type qrRespJob struct {
	q   *QueryResponse
	to  wire.NodeID
	seq uint64
}

// fireQRRespFn is the shared AfterArg trampoline for jittered responses.
func fireQRRespFn(arg any) {
	j := arg.(*qrRespJob)
	q := j.q
	q.resp.From, q.resp.To, q.resp.Seq = q.host.ID(), j.to, j.seq
	q.host.Send(&q.resp)
	q.jobs.put(j)
}

func newQueryResponse(p Params) *QueryResponse {
	return &QueryResponse{silence: newSilence(p, func(t sim.Time) sim.Time { return t })}
}

// Start implements node.Protocol.
func (q *QueryResponse) Start(h *node.Host) {
	q.host = h
	q.tickFn = q.tick
	first := sim.Time(h.Rand().Int63n(int64(q.p.Interval)))
	h.After(first, q.tickFn)
}

func (q *QueryResponse) tick() {
	q.seq++
	q.query.From, q.query.Seq = q.host.ID(), q.seq
	q.host.Send(&q.query)
	q.host.After(q.p.Interval, q.tickFn)
}

// Handle implements node.Protocol: any directly heard query or response is
// liveness evidence for its sender, and a query addressed to the air gets a
// response.
func (q *QueryResponse) Handle(h *node.Host, m wire.Message, from wire.NodeID) {
	now := h.Now()
	switch msg := m.(type) {
	case *wire.FDQuery:
		q.heard[msg.From] = now
		// Copy the fields out: the message is scratch-owned and must not
		// outlive Handle.
		to, seq := msg.From, msg.Seq
		if q.p.RelayJitter > 0 {
			j := q.jobs.take()
			j.q, j.to, j.seq = q, to, seq
			h.AfterArg(sim.Time(h.Rand().Int63n(int64(q.p.RelayJitter))), fireQRRespFn, j)
			return
		}
		q.resp.From, q.resp.To, q.resp.Seq = q.host.ID(), to, seq
		q.host.Send(&q.resp)
	case *wire.FDResponse:
		q.heard[msg.From] = now
	}
}
