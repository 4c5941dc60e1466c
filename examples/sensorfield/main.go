// Sensorfield: an air-dropped sensor network with gradual attrition and
// replenishment — the paper's motivating deployment (Section 1: sensor
// fields supporting crisis management must keep "the operation team updated
// on the network's health" so capacity can be replenished before it is
// exhausted).
//
// 300 sensors operate for 30 heartbeat intervals while hosts die at a
// steady rate. A (simulated) base station watches one host's failure view;
// when the believed-operational population drops below a threshold, it
// "air-drops" replacement sensors, which the open-ended cluster-formation
// algorithm (feature F4) admits automatically.
//
// Run:
//
//	go run ./examples/sensorfield
package main

import (
	"fmt"
	"math"

	"clusterfds/internal/geo"
	"clusterfds/internal/scenario"
	"clusterfds/internal/wire"
)

const (
	initialSensors = 300
	fieldSide      = 600.0
	lossProb       = 0.1
	missionEpochs  = 30
	attritionPer   = 2   // crashes per epoch
	capacityFloor  = 270 // replenish below this believed population
	replenishBatch = 12
)

func main() {
	fmt.Println("== air-dropped sensor field with attrition & replenishment ==")
	w := scenario.Build(scenario.Config{
		Seed:      7,
		Nodes:     initialSensors,
		FieldSide: fieldSide,
		LossProb:  lossProb,
		// Each sensor measures a synthetic temperature field; the readings
		// ride the FDS digests (Section 6's message sharing) and the
		// clusterheads assemble the global picture in-network.
		AggregateSampler: func(id wire.NodeID, e wire.Epoch) (float64, bool) {
			return 15 + 10*math.Sin(float64(e)/5) + float64(id%7), true
		},
	})
	timing := w.Config().Timing
	field := geo.NewRect(fieldSide, fieldSide)

	// Attrition: crash a couple of sensors every epoch from epoch 3 on.
	for e := 3; e < missionEpochs; e++ {
		w.CrashRandomAt(timing.EpochStart(wire.Epoch(e))+timing.Interval/3, attritionPer)
	}

	deployed := initialSensors
	replenishments := 0
	for e := 1; e <= missionEpochs; e++ {
		w.RunEpochs(e)

		// The base station reads the health picture from any operational
		// host — the FDS's completeness property makes them agree.
		ops := w.Operational()
		if len(ops) == 0 {
			fmt.Println("field dead")
			return
		}
		station := ops[0]
		believedFailed := len(w.Detector(station).KnownFailed())
		believedAlive := deployed - believedFailed

		if e%5 == 0 || believedAlive < capacityFloor {
			actualAlive := len(ops)
			fmt.Printf("epoch %2d: station %v believes %d/%d alive (actual %d)\n",
				e, station, believedAlive, deployed, actualAlive)
			// The station also reads the in-network aggregate from the
			// nearest clusterhead.
			for _, id := range ops {
				if w.Cluster(id).IsCH() {
					if g, clusters := w.Aggregate(id).Global(wire.Epoch(e - 1)); g.Count > 0 {
						fmt.Printf("          field temperature (from %d clusters, %d sensors): %s\n",
							clusters, g.Count, g)
					}
					break
				}
			}
		}

		// Maintenance rule (paper Section 2.1): deploy replacements when
		// believed capacity drops below the floor.
		if believedAlive < capacityFloor {
			fmt.Printf("epoch %2d: capacity %d below floor %d -> air-dropping %d sensors\n",
				e, believedAlive, capacityFloor, replenishBatch)
			for i := 0; i < replenishBatch; i++ {
				pos := geo.UniformInRect(w.Kernel.Rand(), field)
				w.DeployAt(timing.EpochStart(wire.Epoch(e))+timing.Interval*3/4, pos)
			}
			deployed += replenishBatch
			replenishments++
		}
	}

	// Final accounting.
	ops := w.Operational()
	station := ops[0]
	c := w.Census()
	fmt.Printf("\nmission complete after %d epochs:\n", missionEpochs)
	fmt.Printf("  deployed %d sensors total (%d replenishment drops)\n", deployed, replenishments)
	fmt.Printf("  %d operational; station believes %d failed\n",
		len(ops), len(w.Detector(station).KnownFailed()))
	fmt.Printf("  clusters: %d CHs, %d members (%d gateways), %d unadmitted\n",
		c.Clusterheads, c.Members, c.Gateways, c.Unmarked)
	if fs := w.FalseSuspicions(); len(fs) > 0 {
		fmt.Printf("  false suspicions outstanding: %d\n", len(fs))
	} else {
		fmt.Println("  no false suspicions outstanding")
	}
	fmt.Printf("  energy: %.0f units total\n", w.TotalEnergySpent())
}
