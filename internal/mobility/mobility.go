// Package mobility adds host migration to the simulation — the extension
// the paper's Section 2.1 defers: "mobile hosts that have localization
// capability and may migrate in the field autonomously (e.g., nano-sat
// swarms) ... as sound clustering algorithms will support cluster and
// routing stability in mobile ad hoc wireless settings, our failure
// detection framework can be extended accordingly to accommodate host
// migration."
//
// The model is the standard random waypoint: each mobile host picks a
// destination uniformly in the field, glides there at its speed in discrete
// steps, pauses, and repeats. No protocol changes are required: a member
// that drifts out of its clusterhead's range stops receiving health
// updates, demotes through the FDS's orphan path, and re-subscribes to
// whatever cluster now covers it (feature F4 treats it as a newly arrived
// host); the cluster protocol's every-epoch announcements and gateway
// re-registration keep the backbone current. What mobility costs is
// accuracy — a fast mover can be falsely detected between de-registration
// and re-subscription — which the tests measure and the rescind mechanism
// repairs.
package mobility

import (
	"math"

	"clusterfds/internal/geo"
	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// Config parameterizes the random-waypoint walker.
type Config struct {
	// Speed is the movement speed in meters per second of virtual time.
	Speed float64
	// Pause is how long the host rests at each waypoint.
	Pause sim.Time
}

// moveStep is the position-update granularity; a smaller step costs more
// simulation events.
const moveStep = sim.Time(1e9) // 1 s

// Protocol is the per-host walker. It only moves the host; it neither
// sends nor receives messages.
type Protocol struct {
	cfg   Config
	field geo.Rect // bounds the waypoints
	host  *node.Host

	target   geo.Point
	moving   bool
	traveled float64
}

// New returns a random-waypoint walker over the given field.
func New(cfg Config, field geo.Rect) *Protocol {
	if cfg.Speed <= 0 || field.Area() <= 0 {
		panic("mobility: invalid config")
	}
	return &Protocol{cfg: cfg, field: field}
}

// Start implements node.Protocol.
func (p *Protocol) Start(h *node.Host) {
	p.host = h
	p.pickTarget()
	h.After(moveStep, p.step)
}

// Handle implements node.Protocol (the walker ignores traffic).
func (p *Protocol) Handle(h *node.Host, m wire.Message, from wire.NodeID) {}

func (p *Protocol) pickTarget() {
	p.target = geo.UniformInRect(p.host.Rand(), p.field)
	p.moving = true
}

// step advances toward the target by Speed*moveStep meters.
func (p *Protocol) step() {
	if !p.moving {
		p.pickTarget()
		p.host.After(moveStep, p.step)
		return
	}
	pos := p.host.Pos()
	dist := pos.Dist(p.target)
	hop := p.cfg.Speed * moveStep.Seconds()
	if dist <= hop {
		p.host.MoveTo(p.target)
		p.traveled += dist
		p.moving = false
		p.host.After(p.cfg.Pause+moveStep, p.step)
		return
	}
	frac := hop / dist
	next := geo.Point{
		X: pos.X + (p.target.X-pos.X)*frac,
		Y: pos.Y + (p.target.Y-pos.Y)*frac,
	}
	// Numerical safety: stay inside the field.
	next.X = math.Min(math.Max(next.X, p.field.MinX), p.field.MaxX)
	next.Y = math.Min(math.Max(next.Y, p.field.MinY), p.field.MaxY)
	p.host.MoveTo(next)
	p.traveled += hop
	p.host.After(moveStep, p.step)
}

// Traveled returns the total distance this host has moved.
func (p *Protocol) Traveled() float64 { return p.traveled }
