// Package sim stubs the one piece of the kernel package the stripshare
// fixture needs: the shared conservative-window driver, whose drain argument
// runs on worker goroutines the calling package never spawns itself.
package sim

type Time int64

func RunWindows(lanes, workers int, span, limit Time,
	next func(lane int) (Time, bool),
	drain func(lane int, end Time),
	barrier func(end Time)) {
}
