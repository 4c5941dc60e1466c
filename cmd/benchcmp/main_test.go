package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		name, line string
		wantName   string
		want       entry
		ok         bool
	}{
		{"cpu suffix stripped",
			"BenchmarkFDSEpoch-2   \t      20\t  22009919 ns/op\t  989258 B/op\t    1821 allocs/op",
			"BenchmarkFDSEpoch", entry{Allocs: 1821, Bytes: 989258, NS: 22009919}, true},
		{"no cpu suffix, fractional ns",
			"BenchmarkPushPop/1e3 \t10000\t 129.5 ns/op\t 0 B/op\t 0 allocs/op",
			"BenchmarkPushPop/1e3", entry{NS: 129.5}, true},
		{"sub-benchmark with = and custom metric between ns and B",
			"BenchmarkFDSEpochParallel/workers=4-2 \t1\t2632377787 ns/op\t 1.69 speedup\t170322824 B/op\t135745 allocs/op",
			"BenchmarkFDSEpochParallel/workers=4", entry{Allocs: 135745, Bytes: 170322824, NS: 2632377787}, true},
		{"without -benchmem figures", "BenchmarkCodec-2 \t20\t1193 ns/op", "", entry{}, false},
		{"package line", "ok  \tclusterfds\t3.1s", "", entry{}, false},
		{"header", "goos: linux", "", entry{}, false},
	}
	for _, tc := range cases {
		name, e, ok := parseLine(tc.line)
		if name != tc.wantName || e != tc.want || ok != tc.ok {
			t.Errorf("%s: parseLine = %q %+v %v, want %q %+v %v", tc.name, name, e, ok, tc.wantName, tc.want, tc.ok)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := entry{Allocs: 100, Bytes: 1000, NS: 50}
	cases := []struct {
		name       string
		baseline   map[string]entry
		got        map[string]entry
		failed     bool
		out, fails []string // substrings stdout and stderr must carry
		absent     string   // substring stdout must not carry
	}{
		{"at baseline", map[string]entry{"BenchmarkA": base}, map[string]entry{"BenchmarkA": base}, false,
			[]string{"ok   BenchmarkA: 100 allocs/op (baseline 100)", "ok   BenchmarkA: 1000 B/op (baseline 1000)", "info BenchmarkA: 50 ns/op (baseline 50, +0.0%)"}, nil, ""},
		{"exactly +10% passes", map[string]entry{"BenchmarkA": base}, map[string]entry{"BenchmarkA": {Allocs: 110, Bytes: 1100, NS: 500}}, false,
			[]string{"ok   BenchmarkA: 110 allocs/op", "ok   BenchmarkA: 1100 B/op", "info BenchmarkA: 500 ns/op (baseline 50, +900.0%)"}, nil, ""},
		{"allocs over 10% fail", map[string]entry{"BenchmarkA": base}, map[string]entry{"BenchmarkA": {Allocs: 111, Bytes: 1000}}, true,
			[]string{"ok   BenchmarkA: 1000 B/op"}, []string{"FAIL BenchmarkA: 111 allocs/op > 110 (baseline 100 +10%)"}, ""},
		{"bytes over 10% fail", map[string]entry{"BenchmarkA": base}, map[string]entry{"BenchmarkA": {Allocs: 100, Bytes: 1101}}, true,
			[]string{"ok   BenchmarkA: 100 allocs/op"}, []string{"FAIL BenchmarkA: 1101 B/op > 1100"}, ""},
		{"improvement asks for a tighter baseline", map[string]entry{"BenchmarkA": base}, map[string]entry{"BenchmarkA": {Allocs: 90, Bytes: 1000}}, false,
			[]string{"ok   BenchmarkA: 90 allocs/op (improved from 100"}, nil, ""},
		{"bytes not pinned are not gated", map[string]entry{"BenchmarkA": {Allocs: 0}}, map[string]entry{"BenchmarkA": {Allocs: 0, Bytes: 9999}}, false,
			[]string{"ok   BenchmarkA: 0 allocs/op (baseline 0)"}, nil, "B/op"},
		{"zero-alloc pin holds at zero", map[string]entry{"BenchmarkA": {Allocs: 0}}, map[string]entry{"BenchmarkA": {Allocs: 1}}, true,
			nil, []string{"FAIL BenchmarkA: 1 allocs/op > 0"}, ""},
		{"baseline name missing from input fails", map[string]entry{"BenchmarkA": base}, map[string]entry{}, true,
			nil, []string{"FAIL BenchmarkA: missing from benchmark output"}, ""},
		{"input-only benchmark is new, not a failure", map[string]entry{"BenchmarkA": base}, map[string]entry{"BenchmarkA": base, "BenchmarkB": {Allocs: 7, Bytes: 70}}, false,
			[]string{"new  BenchmarkB: 7 allocs/op, 70 B/op (not in baseline"}, nil, ""},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		if failed := compare(tc.baseline, tc.got, 0.10, &out, &errOut); failed != tc.failed {
			t.Errorf("%s: failed = %v, want %v", tc.name, failed, tc.failed)
		}
		for _, want := range tc.out {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: stdout lacks %q:\n%s", tc.name, want, out.String())
			}
		}
		for _, want := range tc.fails {
			if !strings.Contains(errOut.String(), want) {
				t.Errorf("%s: stderr lacks %q:\n%s", tc.name, want, errOut.String())
			}
		}
		if len(tc.fails) == 0 && errOut.Len() > 0 {
			t.Errorf("%s: unexpected stderr:\n%s", tc.name, errOut.String())
		}
		if tc.absent != "" && strings.Contains(out.String(), tc.absent) {
			t.Errorf("%s: stdout carries %q:\n%s", tc.name, tc.absent, out.String())
		}
	}
}
