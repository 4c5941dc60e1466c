package transport

import (
	"math"
	"slices"

	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// EnergyParams parameterizes the per-host energy model in abstract energy
// units (paper Section 2.1: hosts spend energy per transmission and per
// received byte, and harvest it back from solar cells).
type EnergyParams struct {
	// TxBaseCost is the fixed cost of keying the radio for one transmission.
	TxBaseCost float64
	// TxByteCost and RxByteCost are the per-byte costs of sending and
	// receiving.
	TxByteCost, RxByteCost float64
	// HarvestRate is energy units gained per second of virtual time.
	HarvestRate float64
	// InitialEnergy is each host's starting budget.
	InitialEnergy float64
}

// DefaultEnergy returns the energy model: the only definition of its five
// numbers. radio.Defaults embeds it, and every LinkTransport meters it.
func DefaultEnergy() EnergyParams {
	return EnergyParams{
		TxBaseCost:    10,
		TxByteCost:    0.5,
		RxByteCost:    0.2,
		HarvestRate:   5,
		InitialEnergy: 100000,
	}
}

// TxCost is one transmission's energy: the keying cost plus the per-byte cost.
func (p EnergyParams) TxCost(bytes int) float64 {
	return p.TxBaseCost + p.TxByteCost*float64(bytes)
}

// RxCost is the energy one reception of the given size spends.
func (p EnergyParams) RxCost(bytes int) float64 { return p.RxByteCost * float64(bytes) }

// Available is the initial budget plus the harvest by now, minus spent, floored at 0.
func (p EnergyParams) Available(spent float64, now sim.Time) float64 {
	return math.Max(0, p.InitialEnergy+p.HarvestRate*now.Seconds()-spent)
}

// Meter is the shared per-host energy meter. The simulated radio medium
// (radio.Medium) and every LinkTransport (radio ports and daemons) delegate
// to it, so the floating-point arithmetic — and therefore the energy-biased
// peer-forwarding backoff in fds — is bit-identical on every path.
//
// A host is charged by its slot — its position in Track order, which the
// radio keeps equal to the slot its delivery records carry — so a reception
// costs an indexed add, not a map probe; reads are by NID. Charging a slot
// nobody was tracked into is a no-op, mirroring the historical radio
// behaviour for unattached NIDs. Available energy is computed lazily from
// the harvest rate and the clock.
type Meter struct {
	params EnergyParams
	clock  Clock
	slotOf map[wire.NodeID]uint32
	spent  []float64 // by slot: cumulative spend
}

// NewMeter creates a meter reading virtual time from clock.
func NewMeter(p EnergyParams, clock Clock) *Meter {
	return &Meter{params: p, clock: clock, slotOf: make(map[wire.NodeID]uint32)}
}

// Track starts metering the given host (zero spend) and returns its slot:
// 0 for the first host tracked, 1 for the next, and so on. Tracking an
// already-tracked host changes nothing and returns the slot it has.
func (m *Meter) Track(id wire.NodeID) uint32 {
	slot, ok := m.slotOf[id]
	if !ok {
		slot = uint32(len(m.spent))
		m.slotOf[id] = slot
		m.spent = append(m.spent, 0)
	}
	return slot
}

// ChargeTx debits transmission energy.
func (m *Meter) ChargeTx(slot uint32, bytes int) {
	if int(slot) < len(m.spent) {
		m.spent[slot] += m.params.TxCost(bytes)
	}
}

// ChargeRx debits reception energy.
func (m *Meter) ChargeRx(slot uint32, bytes int) {
	if int(slot) < len(m.spent) {
		m.spent[slot] += m.params.RxCost(bytes)
	}
}

// Energy returns the host's available energy. Untracked hosts have zero
// energy.
func (m *Meter) Energy(id wire.NodeID) float64 {
	slot, ok := m.slotOf[id]
	if !ok {
		return 0
	}
	return m.params.Available(m.spent[slot], m.clock.Now())
}

// Spent returns the host's cumulative energy expenditure.
func (m *Meter) Spent(id wire.NodeID) float64 {
	if slot, ok := m.slotOf[id]; ok {
		return m.spent[slot]
	}
	return 0
}

// TotalSpent sums expenditure over all tracked hosts in NID order, so the
// floating-point total is identical across runs.
func (m *Meter) TotalSpent() float64 {
	ids := make([]wire.NodeID, 0, len(m.slotOf))
	for id := range m.slotOf {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var t float64
	for _, id := range ids {
		t += m.spent[m.slotOf[id]]
	}
	return t
}
