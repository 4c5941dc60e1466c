// Command benchcmp is the allocation-regression gate: it reads `go test
// -bench -benchmem` output on stdin, extracts allocs/op, B/op, and ns/op for
// each benchmark, and compares them against a committed baseline JSON. Any
// benchmark whose allocs/op or B/op exceeds its baseline by more than the
// tolerance fails the gate, as does a baseline benchmark missing from the
// input (a renamed or deleted benchmark must be renamed in the baseline too,
// deliberately). The reverse is informational only: a benchmark present in
// the input but absent from the baseline is reported as "new" and does not
// fail the gate, so a PR can introduce a benchmark and ratchet it into the
// baseline in one change.
//
// Usage:
//
//	go test -run '^$' -bench '...' -benchmem . | benchcmp -baseline bench_baseline.json
//
// The baseline maps bare benchmark names (no -cpu suffix) to an object
// carrying the three figures:
//
//	{"BenchmarkFDSEpoch": {"allocs": 1838, "bytes": 1036623, "ns": 20262772}}
//
// Allocation and byte counts at a fixed -benchtime are deterministic for
// this repository's benchmarks (single-threaded simulation, fixed seeds), so
// the default tolerance of 10% only absorbs incidental variation from
// runtime internals across Go releases, not real regressions. When an
// optimization lowers a count, benchcmp says so; tighten the baseline in the
// same PR. Wall-clock (ns/op) depends on the machine, so it is never gated:
// when the baseline carries an ns figure, benchcmp prints the delta as an
// info line so drift is visible in the log without flaking the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches one -benchmem result line and captures the bare name
// (without the -GOMAXPROCS suffix) and the ns/op, B/op, and allocs/op
// figures.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op.*?([\d.]+) B/op\s+([\d.]+) allocs/op`)

// entry is one benchmark's pinned figures. Allocs and Bytes are gated;
// Bytes == 0 means "not pinned". NS is informational only —
// machine-dependent, so deviations print but never fail.
type entry struct {
	Allocs float64 `json:"allocs"`
	Bytes  float64 `json:"bytes,omitempty"`
	NS     float64 `json:"ns,omitempty"`
}

// parseLine extracts the benchmark name and figures from one line of
// `go test -bench -benchmem` output; ok is false for every other line.
func parseLine(line string) (name string, e entry, ok bool) {
	mm := benchLine.FindStringSubmatch(line)
	if mm == nil {
		return "", entry{}, false
	}
	ns, err1 := strconv.ParseFloat(mm[2], 64)
	bytes, err2 := strconv.ParseFloat(mm[3], 64)
	allocs, err3 := strconv.ParseFloat(mm[4], 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return "", entry{}, false
	}
	return mm[1], entry{Allocs: allocs, Bytes: bytes, NS: ns}, true
}

func main() {
	baselinePath := flag.String("baseline", "bench_baseline.json",
		"committed baseline JSON (name -> {allocs, bytes, ns} object)")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional increase over baseline")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	var baseline map[string]entry
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: parsing %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	if len(baseline) == 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %s contains no benchmarks\n", *baselinePath)
		os.Exit(2)
	}

	got := make(map[string]entry)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the raw results through for the log
		if name, e, ok := parseLine(line); ok {
			got[name] = e
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: reading stdin: %v\n", err)
		os.Exit(2)
	}

	if compare(baseline, got, *tolerance, os.Stdout, os.Stderr) {
		os.Exit(1)
	}
	fmt.Println("benchcmp: all allocation gates passed")
}

// compare prints one verdict line per gated figure — ok and info lines to
// out, FAIL lines to errOut — and reports whether the gate failed.
func compare(baseline, got map[string]entry, tolerance float64, out, errOut io.Writer) (failed bool) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	// Benchmarks present in the run but absent from the baseline are
	// informational, not failures: a PR that introduces a benchmark can run
	// it through the gate immediately and ratchet the baseline in the same
	// change, without a chicken-and-egg edit ordering.
	extra := make([]string, 0)
	for name := range got {
		if _, ok := baseline[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(out, "benchcmp: new  %s: %.0f allocs/op, %.0f B/op (not in baseline — add it to ratchet the gate)\n",
			name, got[name].Allocs, got[name].Bytes)
	}

	// gauge compares one gated figure against its baseline and returns
	// whether it regressed past the tolerance.
	gauge := func(name, unit string, cur, base float64) bool {
		limit := base * (1 + tolerance)
		switch {
		case cur > limit:
			fmt.Fprintf(errOut, "benchcmp: FAIL %s: %.0f %s > %.0f (baseline %.0f +%.0f%%)\n",
				name, cur, unit, limit, base, tolerance*100)
			return true
		case cur < base:
			fmt.Fprintf(out, "benchcmp: ok   %s: %.0f %s (improved from %.0f — consider tightening the baseline)\n",
				name, cur, unit, base)
		default:
			fmt.Fprintf(out, "benchcmp: ok   %s: %.0f %s (baseline %.0f)\n", name, cur, unit, base)
		}
		return false
	}

	for _, name := range names {
		base := baseline[name]
		cur, ok := got[name]
		if !ok {
			fmt.Fprintf(errOut, "benchcmp: FAIL %s: missing from benchmark output\n", name)
			failed = true
			continue
		}
		failed = gauge(name, "allocs/op", cur.Allocs, base.Allocs) || failed
		if base.Bytes > 0 {
			failed = gauge(name, "B/op", cur.Bytes, base.Bytes) || failed
		}
		if base.NS > 0 {
			// Wall-clock is machine-dependent: report, never gate.
			fmt.Fprintf(out, "benchcmp: info %s: %.0f ns/op (baseline %.0f, %+.1f%%)\n",
				name, cur.NS, base.NS, 100*(cur.NS-base.NS)/base.NS)
		}
	}
	return failed
}
