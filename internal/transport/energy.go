package transport

import (
	"math"

	"clusterfds/internal/sim"
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
// numbers. radio.Defaults embeds it, and every LinkTransport charges it.
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
