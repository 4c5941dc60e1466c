package sim

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkPushPop is the heap alone: one pop plus one push per operation
// with `pending` events queued. Every handler re-arms itself at a random
// later instant, so the queue depth holds steady.
func BenchmarkPushPop(b *testing.B) {
	for _, c := range []struct {
		name    string
		pending int
	}{{"1e3", 1e3}, {"1e5", 1e5}} {
		pending := c.pending
		b.Run(c.name, func(b *testing.B) {
			k := New(1)
			rng := rand.New(rand.NewSource(2))
			left := 0
			var fn ArgHandler
			fn = func(any) {
				if left--; left == 0 {
					k.Stop()
				}
				k.ScheduleArg(Time(1+rng.Int63n(1_000_000)), fn, nil)
			}
			for i := 0; i < pending; i++ {
				k.ScheduleArg(Time(1+rng.Int63n(1_000_000)), fn, nil)
			}
			left = pending // warm-up: every slot of the pool and the heap touched once
			k.Run()
			b.ReportAllocs()
			b.ResetTimer()
			left = b.N
			k.Run()
		})
	}
}

// BenchmarkRunFanout is the run alone: one operation schedules a fan-out of
// `fan` items spread over 11 ms, 1 ms after now, and advances the clock by
// `every` — the kernel's share of a radio broadcast, without the radio. At
// 1 ms, /10 and /100 keep about a dozen runs in flight; /90x200 keeps about
// 200 runs of 90 items, the density of flood100's heap.
func BenchmarkRunFanout(b *testing.B) {
	for _, c := range []struct {
		name  string
		fan   int
		every Time
	}{
		{"10", 10, Time(time.Millisecond)},
		{"100", 100, Time(time.Millisecond)},
		{"90x200", 90, 12 * Time(time.Millisecond) / 200},
	} {
		fan, every := c.fan, c.every
		b.Run(c.name, func(b *testing.B) {
			k := New(1)
			rng := rand.New(rand.NewSource(2))
			var free []*Run
			var fire RunHandler = func(arg any, _ RunItem) {
				if r := arg.(*Run); r.Done() {
					free = append(free, r)
				}
			}
			op := func() {
				if len(free) == 0 {
					free = append(free, &Run{Items: make([]RunItem, 0, fan)})
				}
				r := free[len(free)-1]
				free = free[:len(free)-1]
				r.Items = r.Items[:0]
				for i := 0; i < fan; i++ {
					at := k.Now() + Time(time.Millisecond) + Time(rng.Int63n(int64(11*time.Millisecond)))
					r.Items = append(r.Items, RunItem{At: at, Tag: uint32(i)})
				}
				k.ScheduleRun(r, fire, r)
				k.RunUntil(k.Now() + every)
			}
			for i := 0; i < 100*int(Time(time.Millisecond)/every); i++ {
				op()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fan), "ns/item")
		})
	}
}

// BenchmarkBatchedPhases is the epoch schedule's share of the kernel: 600
// hosts each re-arm a boundary callback every epoch and register one of
// three round-end callbacks from it, so one operation (one epoch) fills and
// runs four batches, the boundary's with 600 entries.
func BenchmarkBatchedPhases(b *testing.B) {
	const (
		hosts = 600
		epoch = 10 * Time(time.Second)
		round = 20 * Time(time.Millisecond)
	)
	k := New(1)
	roundEnd := ArgHandler(func(any) {})
	var boundary ArgHandler
	boundary = func(a any) {
		h := *a.(*int)
		k.AtBatched(k.Now()+epoch, boundary, a)
		k.AtBatched(k.Now()+Time(1+h%3)*round, roundEnd, a)
	}
	ids := make([]int, hosts)
	for i := range ids {
		ids[i] = i
		k.AtBatched(0, boundary, &ids[i])
	}
	k.RunUntil(epoch) // warm-up: every batch and chunk the epoch needs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunUntil(k.Now() + epoch)
	}
}
