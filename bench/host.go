package main

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// hostInfo is the header every report carries: where the numbers come from.
type hostInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// CalibrationS times a fixed pure-Go loop before the first child and
	// after the last; Noisy is set when the two differ by more than 10%.
	CalibrationS [2]float64 `json:"calibration_s"`
	Noisy        bool       `json:"noisy"`
}

func readHost() hostInfo {
	h := hostInfo{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" {
		// `go run` stamps no VCS revision; ask git, if this is a checkout.
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// calibrate times a fixed pure-Go loop — an integer mix feeding a binary
// heap sift over a slice, about 0.3 s on the reference host — so two reports
// can be told apart from two hosts, and a run on a busy host from a quiet one.
func calibrate() float64 {
	const n = 1 << 16
	heap := make([]uint64, n)
	x := uint64(0x9E3779B97F4A7C15)
	start := time.Now()
	for i := 0; i < 120_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Replace the root and sift it down.
		heap[0] = x
		j := 0
		for {
			l := 2*j + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && heap[r] < heap[l] {
				l = r
			}
			if heap[j] <= heap[l] {
				break
			}
			heap[j], heap[l] = heap[l], heap[j]
			j = l
		}
	}
	calibrationSink = heap[0]
	return time.Since(start).Seconds()
}

// calibrationSink keeps the compiler from discarding the loop.
var calibrationSink uint64
