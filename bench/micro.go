package main

import (
	"math/rand"
	"time"

	"clusterfds/internal/geo"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// Micro-benchmarks: one layer called directly at a fixed operation count,
// no world around it. They say what a layer costs in isolation, so a span
// that moves in a traced run can be checked against the layer alone.

// microOps scales every micro-benchmark's operation count; tests lower it.
var microOps = 200_000

// runMicro runs every micro-benchmark and returns ns-per-operation figures
// by metric name.
func runMicro() map[string]float64 {
	out := map[string]float64{
		"sim.push_pop_ns.1e3": microPushPop(1_000),
		"sim.push_pop_ns.1e5": microPushPop(100_000),
		"sim.cancel_ns":       microCancel(),
	}
	out["radio.bcast_ns_per_rx.deg10"], _ = microRadio(10)
	out["radio.bcast_ns_per_rx.deg50"], out["radio.neighbors_ns.deg50"] = microRadio(50)

	heard := make([]wire.NodeID, 100)
	for i := range heard {
		heard[i] = wire.NodeID(i + 1)
	}
	msgs := []struct {
		name string
		m    wire.Message
	}{
		{"heartbeat", &wire.Heartbeat{NID: 7, Epoch: 3, Marked: true}},
		{"digest100", &wire.Digest{NID: 7, CH: 1, Epoch: 3, Heard: heard}},
		{"failure-report", &wire.FailureReport{
			OriginCH: 1, Seq: 9, Epoch: 3, NewFailed: heard[:2], AllFailed: heard[:6],
			Sender: 7, TargetCH: 12,
		}},
	}
	for _, c := range msgs {
		out["wire.encode_ns."+c.name], out["wire.decode_ns."+c.name] = microWire(c.m)
	}
	return out
}

// microPushPop measures one heap pop plus one push with `pending` events
// queued: every handler re-arms itself at a random later instant, so the
// queue depth holds steady while microOps events run.
func microPushPop(pending int) float64 {
	k := sim.New(1)
	rng := rand.New(rand.NewSource(2))
	ran := 0
	var fn sim.ArgHandler
	fn = func(any) {
		ran++
		if ran == microOps {
			k.Stop()
		}
		k.ScheduleArg(sim.Time(1+rng.Int63n(1_000_000)), fn, nil)
	}
	for i := 0; i < pending; i++ {
		k.ScheduleArg(sim.Time(1+rng.Int63n(1_000_000)), fn, nil)
	}
	start := time.Now()
	k.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(ran)
}

// microCancel measures canceling an armed timer, including the kernel
// discarding the dead event when its instant comes.
func microCancel() float64 {
	k := sim.New(1)
	timers := make([]sim.Timer, microOps)
	for i := range timers {
		timers[i] = k.Schedule(sim.Time(i+1), func() {})
	}
	start := time.Now()
	for _, t := range timers {
		t.Cancel()
	}
	k.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(len(timers))
}

// sinkReceiver is a host that accepts every delivery and does nothing.
type sinkReceiver struct {
	id  wire.NodeID
	pos geo.Point
}

func (s *sinkReceiver) ID() wire.NodeID                   { return s.id }
func (s *sinkReceiver) Pos() geo.Point                    { return s.pos }
func (s *sinkReceiver) Operational() bool                 { return true }
func (s *sinkReceiver) Deliver(wire.Message, wire.NodeID) {}

// microRadio measures a lossless heartbeat broadcast among deg+1 hosts in
// mutual range — per reception, covering send, the delivery event and the
// receive-side decode — and one neighbour query at that degree.
func microRadio(deg int) (bcastNsPerRx, neighborsNs float64) {
	k := sim.New(1)
	m := radio.New(k, radio.Defaults(0))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i <= deg; i++ {
		m.Attach(&sinkReceiver{id: wire.NodeID(i + 1), pos: geo.Point{X: rng.Float64() * 30, Y: rng.Float64() * 30}})
	}
	sends := microOps / deg
	hb := &wire.Heartbeat{NID: 1, Epoch: 1}
	start := time.Now()
	for i := 0; i < sends; i++ {
		m.Send(wire.NodeID(i%(deg+1)+1), hb)
		k.Run()
	}
	bcastNsPerRx = float64(time.Since(start).Nanoseconds()) / float64(sends*deg)

	var buf []wire.NodeID
	start = time.Now()
	for i := 0; i < sends; i++ {
		buf = m.NeighborsAppend(buf[:0], geo.Point{X: 15, Y: 15}, 1)
	}
	neighborsNs = float64(time.Since(start).Nanoseconds()) / float64(sends)
	return bcastNsPerRx, neighborsNs
}

// microWire measures EncodeAppend into a reused buffer and DecodeInto a
// reused scratch for one message.
func microWire(m wire.Message) (encodeNs, decodeNs float64) {
	var buf []byte
	start := time.Now()
	for i := 0; i < microOps; i++ {
		buf = wire.EncodeAppend(buf[:0], m)
	}
	encodeNs = float64(time.Since(start).Nanoseconds()) / float64(microOps)

	scratch := wire.NewDecodeScratch()
	start = time.Now()
	for i := 0; i < microOps; i++ {
		if _, err := wire.DecodeInto(scratch, buf); err != nil {
			panic(err)
		}
	}
	decodeNs = float64(time.Since(start).Nanoseconds()) / float64(microOps)
	return encodeNs, decodeNs
}
