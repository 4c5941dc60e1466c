// Package par is the floatfold fixture: float folds must be serial and
// pinned — never inside worker goroutines, never in map iteration order.
package par

import "sort"

type engine struct {
	sum   float64
	spent []float64
	count int
}

type stat struct {
	sum float64
	n   int
}

// combine accumulates floating-point state into its receiver — the base
// property the call-site rule propagates.
func (s *stat) combine(o stat) {
	s.sum += o.sum
	s.n += o.n
}

// --- firing -----------------------------------------------------------------

// badWorker folds into shared engine state from a goroutine.
func (e *engine) badWorker(vals []float64) {
	done := make(chan struct{})
	go func() {
		for _, v := range vals {
			e.sum += v // want `floating-point accumulation into e\.sum inside a parallel worker region`
		}
		done <- struct{}{}
	}()
	<-done
}

// badWorkerSelfForm: the x = x + y spelling is the same fold.
func (e *engine) badWorkerSelfForm(vals []float64) {
	go func() {
		for _, v := range vals {
			e.sum = e.sum + v // want `floating-point accumulation into e\.sum inside a parallel worker region`
		}
	}()
}

// badWorkerCall hides the fold behind a helper; both the call site and the
// helper body (reachable from the goroutine) fire.
func (e *engine) badWorkerCall(vals []float64) {
	go func() {
		for _, v := range vals {
			e.addSample(v) // want `call to addSample, which accumulates floating-point state, inside a parallel worker region`
		}
	}()
}

func (e *engine) addSample(v float64) {
	e.sum += v // want `floating-point accumulation into e\.sum inside a parallel worker region`
}

// badMapFold folds float values in map iteration order.
func (e *engine) badMapFold(parts map[int]float64) {
	for _, v := range parts {
		e.sum += v // want `floating-point accumulation into e\.sum inside a range over a map`
	}
}

// badMapLocal: even a frame-local fold is unpinned in map order.
func mapLocal(parts map[int]float64) float64 {
	t := 0.0
	for _, v := range parts {
		t += v // want `floating-point accumulation into t inside a range over a map`
	}
	return t
}

// badMapCombine is the aggregate.Global shape: the fold hides inside a
// method called in map order.
func badMapCombine(parts map[int]stat) stat {
	var total stat
	for _, s := range parts {
		total.combine(s) // want `call to combine, which accumulates floating-point state, inside a range over a map`
	}
	return total
}

// --- non-firing -------------------------------------------------------------

// goodLocalFold: a worker folds its own partial and hands it through the
// barrier; the serial side merges in pinned order.
func (e *engine) goodLocalFold(vals []float64, out chan float64) {
	go func() {
		t := 0.0
		for _, v := range vals {
			t += v
		}
		out <- t
	}()
}

// goodIndexed: per-element slots are owned by exactly one worker under the
// strip decomposition.
func (e *engine) goodIndexed(idx []int, cost float64) {
	go func() {
		for _, i := range idx {
			e.spent[i] += cost
		}
	}()
}

// goodSerial: the same fold outside any worker region is the sanctioned
// barrier-side merge.
func (e *engine) goodSerial(vals []float64) {
	for _, v := range vals {
		e.sum += v
	}
}

// goodIntWorker: integer accumulation is exact in any order.
func (e *engine) goodIntWorker(n int) {
	go func() {
		for i := 0; i < n; i++ {
			e.count++
		}
	}()
}

// goodPerKey: one slot per map entry cannot observe iteration order.
func goodPerKey(parts map[int]float64, out []float64) {
	for k, v := range parts {
		out[k] += v
	}
}

// goodSortedFold collects keys, sorts, and folds serially — the pattern
// the diagnostics point at.
func goodSortedFold(parts map[int]stat) stat {
	keys := make([]int, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var total stat
	for _, k := range keys {
		total.combine(parts[k])
	}
	return total
}
