// Package aggregate implements the in-network data aggregation service the
// paper's Section 6 sketches on top of the cluster architecture:
// "coordinated in-network computation for average, maximum, or minimum of
// sensor measurements", with "energy efficiency induced by the message
// sharing between failure detection and data aggregation".
//
// The sharing is literal: each member's sensor reading rides the digest it
// already sends in fds.R-2 (fds.SetReadingSource), so intra-cluster
// aggregation costs zero extra transmissions. At the end of the epoch the
// clusterhead folds the readings it received into a partial aggregate
// {count, sum, min, max} and broadcasts it once; gateway candidates forward
// partials across the backbone exactly as they forward failure reports
// (one-shot, loss-tolerated — aggregation is periodic, so a lost partial
// merely ages one epoch). Every clusterhead can then answer global
// min/max/mean queries from the partials it has collected.
//
// Failure awareness comes for free: a crashed member sends no digest, so
// its reading silently leaves the aggregate the same epoch the FDS detects
// it — the coupling the paper calls "further improvement of failure
// detection accuracy resulting from the sharing of the algorithms for
// reliable aggregation".
package aggregate

import (
	"fmt"
	"math"
	"sort"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// Sampler produces this host's sensor reading for an epoch. Returning
// ok=false skips the epoch (sensor warming up, invalid measurement, …).
type Sampler func(epoch wire.Epoch) (value float64, ok bool)

// Stat is a combinable aggregate of readings.
type Stat struct {
	Count uint32
	Sum   float64
	Min   float64
	Max   float64
}

// Add folds a single reading into the stat.
func (s *Stat) Add(v float64) {
	if s.Count == 0 {
		s.Min, s.Max = v, v
	} else {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	s.Count++
	s.Sum += v
}

// Combine merges another partial into the stat.
func (s *Stat) Combine(o Stat) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = o
		return
	}
	s.Count += o.Count
	s.Sum += o.Sum
	s.Min = math.Min(s.Min, o.Min)
	s.Max = math.Max(s.Max, o.Max)
}

// Mean returns the average reading (0 when empty).
func (s Stat) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// String renders the stat for logs.
func (s Stat) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f", s.Count, s.Mean(), s.Min, s.Max)
}

// keepEpochs bounds how many epochs of partials are retained for queries
// (older entries are pruned).
const keepEpochs = 4

// aggKey identifies one cluster's partial for one epoch.
type aggKey struct {
	origin wire.NodeID
	epoch  wire.Epoch
}

// Protocol is the per-host aggregation service. It must be attached to the
// host AFTER the cluster and FDS protocols.
type Protocol struct {
	host    *node.Host
	cluster *cluster.Protocol
	sampler Sampler

	epoch wire.Epoch

	// CH state: readings gathered from this epoch's digests.
	gathered Stat
	selfRead bool

	// partials holds cluster partials seen (own and flooded), for the
	// retained epochs. forwarded marks (key, this host) transmissions so
	// each host relays a partial at most once; heardTx counts overheard
	// transmissions per key so redundant relays stand down.
	partials  map[aggKey]Stat
	forwarded map[aggKey]bool
	heardTx   map[aggKey]int
}

// New returns an aggregation service wired to the co-resident protocols.
// It runs on cl's timing and registers the sampler as the FDS's digest
// reading source.
func New(cl *cluster.Protocol, f *fds.Protocol, sampler Sampler) *Protocol {
	if cl == nil || f == nil {
		panic("aggregate: nil cluster or fds protocol")
	}
	if sampler == nil {
		panic("aggregate: nil sampler")
	}
	p := &Protocol{
		cluster:   cl,
		sampler:   sampler,
		partials:  make(map[aggKey]Stat),
		forwarded: make(map[aggKey]bool),
		heardTx:   make(map[aggKey]int),
	}
	f.SetReadingSource(func(e wire.Epoch) (float64, bool) { return sampler(e) })
	return p
}

// Start implements node.Protocol.
func (p *Protocol) Start(h *node.Host) {
	p.host = h
	p.cluster.Timing().EveryEpoch(h, p.runEpoch)
}

func (p *Protocol) runEpoch(e wire.Epoch) {
	p.epoch = e
	p.gathered = Stat{}
	p.selfRead = false
	p.prune(e)

	// The CH publishes its cluster partial right after the digest round —
	// in the same slot as the health update, one broadcast per cluster.
	t := p.cluster.Timing()
	p.host.After(t.R2End()+t.Thop/8, func() { p.publishPartial(e) })
}

// prune drops partials older than the retention window.
func (p *Protocol) prune(now wire.Epoch) {
	for k := range p.partials {
		if uint64(now)-uint64(k.epoch) > keepEpochs {
			delete(p.partials, k)
			delete(p.forwarded, k)
			delete(p.heardTx, k)
		}
	}
}

// publishPartial folds the CH's own reading into the gathered stats and
// broadcasts the cluster partial.
func (p *Protocol) publishPartial(e wire.Epoch) {
	if !p.cluster.IsCH() {
		return
	}
	if !p.selfRead {
		if val, ok := p.sampler(e); ok {
			p.gathered.Add(val)
			p.selfRead = true
		}
	}
	if p.gathered.Count == 0 {
		return
	}
	k := aggKey{origin: p.host.ID(), epoch: e}
	p.partials[k] = p.gathered
	p.forwarded[k] = true
	p.host.Send(&wire.Aggregate{
		OriginCH: p.host.ID(),
		Epoch:    e,
		Count:    p.gathered.Count,
		Sum:      p.gathered.Sum,
		Min:      p.gathered.Min,
		Max:      p.gathered.Max,
		Sender:   p.host.ID(),
	})
}

// Handle implements node.Protocol.
func (p *Protocol) Handle(h *node.Host, m wire.Message, from wire.NodeID) {
	switch msg := m.(type) {
	case *wire.Digest:
		p.onDigest(msg)
	case *wire.Aggregate:
		p.onAggregate(msg)
	}
}

// onDigest gathers member readings on the clusterhead (zero extra cost:
// the digests are the FDS's own round-2 traffic).
func (p *Protocol) onDigest(m *wire.Digest) {
	if m.Epoch != p.epoch || !m.HasReading {
		return
	}
	if !p.cluster.IsCH() || m.CH != p.host.ID() {
		return
	}
	p.gathered.Add(m.Reading)
}

// onAggregate absorbs and relays cluster partials: clusterheads rebroadcast
// unseen partials once; gateway candidates forward a clusterhead's
// transmission toward the clusters they bridge, once, after a short jitter
// (no acknowledgments — a lost partial costs one epoch of staleness, which
// periodic aggregation tolerates).
func (p *Protocol) onAggregate(m *wire.Aggregate) {
	k := aggKey{origin: m.OriginCH, epoch: m.Epoch}
	if uint64(p.epoch) > uint64(m.Epoch)+keepEpochs {
		return // too old to matter
	}
	p.heardTx[k]++
	if _, seen := p.partials[k]; !seen {
		p.partials[k] = Stat{Count: m.Count, Sum: m.Sum, Min: m.Min, Max: m.Max}
	}
	if p.forwarded[k] {
		return
	}
	cl := p.cluster
	switch {
	case cl.IsCH():
		p.forwarded[k] = true
		out := *m
		out.Sender = p.host.ID()
		p.host.Send(&out)
	case cl.Marked() && (cl.IsGW() || cl.HasBorderClusters()):
		// Forward only transmissions made by a clusterhead we can hear;
		// everything else is another relay's echo.
		if m.Sender != cl.CH() && !cl.HearsCH(m.Sender) {
			return
		}
		p.forwarded[k] = true
		out := *m
		out.Sender = p.host.ID()
		// NID-keyed jitter spreads concurrent relays; a relay that has
		// since overheard enough other transmissions of the same partial
		// stands down (aggregation tolerates the residual loss risk).
		heardAtDecision := p.heardTx[k]
		thop := p.cluster.Timing().Thop
		jitter := sim.Time(uint64(p.host.ID()) * uint64(thop) / 3 % uint64(2*thop))
		p.host.After(jitter, func() {
			if p.heardTx[k]-heardAtDecision >= 2 {
				return
			}
			p.host.Send(&out)
		})
	}
}

// --- queries -------------------------------------------------------------------

// ClusterPartial returns this host's cluster partial for the given epoch,
// if known.
func (p *Protocol) ClusterPartial(e wire.Epoch) (Stat, bool) {
	s, ok := p.partials[aggKey{origin: p.cluster.CH(), epoch: e}]
	return s, ok
}

// Global combines every cluster partial known for the given epoch into the
// network-wide aggregate, and reports how many clusters contributed. Partials
// are folded in sorted-origin order: Sum is a float accumulation, so map
// iteration order would make the low bits of the global vary run to run.
func (p *Protocol) Global(e wire.Epoch) (Stat, int) {
	var total Stat
	origins := p.Origins(e)
	for _, o := range origins {
		total.Combine(p.partials[aggKey{origin: o, epoch: e}])
	}
	return total, len(origins)
}

// Origins returns the clusterheads whose partials are known for the epoch,
// sorted — useful to audit coverage.
func (p *Protocol) Origins(e wire.Epoch) []wire.NodeID {
	var out []wire.NodeID
	for k := range p.partials {
		if k.epoch == e {
			out = append(out, k.origin)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
