package main

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the test binary as fdsim itself when FDSIM_MAIN is set, so
// that a test can drive the command end to end (see fdsim).
func TestMain(m *testing.M) {
	if os.Getenv("FDSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fdsim runs the command with args and returns its standard output.
func fdsim(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FDSIM_MAIN=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("fdsim %s: %v", strings.Join(args, " "), err)
	}
	return string(out)
}

// TestCrashesPastTheEnd pins that a summary reports only crashes that
// happened. The default crash epoch, 4, is past the end of a three-epoch
// run, so no host crashes: every engine's summary says so, names no victim
// and prints no completeness, and a zero-epoch run prints no per-epoch
// ratio of 0/0.
func TestCrashesPastTheEnd(t *testing.T) {
	const note = "no crashes: -crash-epoch 4 is at or past the run's end"
	for _, args := range [][]string{
		{"-nodes", "50", "-epochs", "3"},
		{"-nodes", "50", "-epochs", "3", "-epoch-workers", "2"},
		{"-nodes", "50", "-epochs", "3", "-shards", "2"},
		{"-nodes", "50", "-epochs", "3", "-trials", "3", "-workers", "1"},
		{"-nodes", "10", "-crashes", "50", "-epochs", "3"},
		{"-nodes", "50", "-epochs", "0"},
		{"-nodes", "50", "-epochs", "0", "-epoch-workers", "2"},
	} {
		out := fdsim(t, args...)
		for _, bad := range []string{"crashed at", "known by", "victims", "completeness", "NaN"} {
			if strings.Contains(out, bad) {
				t.Errorf("fdsim %s prints %q:\n%s", strings.Join(args, " "), bad, out)
			}
		}
		if !strings.Contains(out, note) {
			t.Errorf("fdsim %s does not say %q:\n%s", strings.Join(args, " "), note, out)
		}
	}
	// A crash inside the run is still reported, and the strip engine prints
	// the census and the false-suspicion line as the serial engine does.
	out := fdsim(t, "-nodes", "50", "-epochs", "6", "-epoch-workers", "2")
	for _, want := range []string{"cluster census:", "crashed at epoch 4", "false suspicions"} {
		if !strings.Contains(out, want) || strings.Contains(out, "no crashes") {
			t.Errorf("fdsim -epochs 6 -epoch-workers 2 does not print %q for its crash wave:\n%s", want, out)
		}
	}
}

// TestCheckFlags pins which flag values fdsim refuses before any engine
// starts, and that the defaults and the edges of each range pass. A row's
// options are nodes, field, p, epochs, crashes, crash epoch, shards, epoch
// workers, trials, trace level, workers, shard workers and the flags only
// the serial engine reads.
func TestCheckFlags(t *testing.T) {
	cfds := serialFlags{detector: "cluster-fds"}
	with := func(f func(*serialFlags)) serialFlags {
		sf := cfds
		f(&sf)
		return sf
	}
	flood := with(func(f *serialFlags) { f.detector = "flood" })
	for _, c := range []struct {
		opts options
		want string // "" = accepted; else a substring of the error
	}{
		{options{100, 500, 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1, cfds}, ""},
		{options{1, 1e-3, 0, 0, 0, 0, 0, 0, 1, "", 1, 1, cfds}, ""},
		{options{50, 500, 1, 1, 0, 0, 4, 0, 1, "", 1, 1, cfds}, ""},
		{options{0, 500, 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1, cfds}, "-nodes 0"},
		{options{-5, 500, 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1, cfds}, "-nodes -5"},
		{options{50, 0, 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1, cfds}, "-field 0"},
		{options{50, -200, 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1, cfds}, "-field -200"},
		{options{50, math.NaN(), 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1, cfds}, "-field NaN"},
		{options{50, 500, 2, 1, 3, 4, 0, 0, 1, "", 1, 1, cfds}, "-p 2"},
		{options{50, 500, -0.1, 1, 3, 4, 0, 0, 1, "", 1, 1, cfds}, "-p -0.1"},
		{options{50, 500, math.NaN(), 1, 3, 4, 0, 0, 1, "", 1, 1, cfds}, "-p NaN"},
		{options{50, 500, 0.1, -1, 3, 4, 0, 0, 1, "", 1, 1, cfds}, "-epochs -1"},
		{options{50, 500, 0.1, 1, -1, 4, 0, 0, 1, "", 1, 1, cfds}, "-crashes -1"},
		{options{50, 500, 0.1, 4, 3, -3, 0, 0, 1, "", 1, 1, cfds}, "-crash-epoch -3"},
		{options{50, 500, 0.1, 0, 3, 4, 1, 0, 1, "", 1, 1, cfds}, "-shards 1 -epochs 0"},
		{options{40, 300, 0.1, 6, 1, 3, 0, 0, 1, "protocol", 1, 1, cfds}, ""},
		{options{40, 300, 0.1, 6, 1, 3, 0, 0, 1, "radio", 1, 1, cfds}, ""},
		{options{40, 300, 0.1, 6, 1, 3, 0, 0, 1, "causes", 1, 1, cfds}, ""},
		{options{40, 300, 2, 6, 1, 3, 0, 0, 1, "protocol", 1, 1, cfds}, "-p 2"},
		{options{40, 300, 0.1, -1, 1, 3, 0, 0, 1, "protocol", 1, 1, cfds}, "-epochs -1"},
		{options{0, 300, 0.1, 6, 1, 3, 0, 0, 1, "protocol", 1, 1, cfds}, "-nodes 0"},
		{options{40, 0, 0.1, 6, 1, 3, 0, 0, 1, "protocol", 1, 1, cfds}, "-field 0"},
		{options{40, 300, 0.1, 6, -1, 3, 0, 0, 1, "protocol", 1, 1, cfds}, "-crashes -1"},
		{options{40, 300, 0.1, 6, 1, -3, 0, 0, 1, "protocol", 1, 1, cfds}, "-crash-epoch -3"},
		{options{40, 300, 0.1, 6, 1, 3, 0, 0, 3, "protocol", 1, 1, cfds}, "-trace protocol -trials 3"},
		{options{40, 300, 0.1, 6, 1, 3, 0, 2, 1, "causes", 1, 1, cfds}, "-trace causes -shards 0 -epoch-workers 2"},
		{options{40, 300, 0.1, 6, 1, 3, 2, 0, 1, "radio", 1, 1, cfds}, "-trace radio -shards 2 -epoch-workers 0"},
		{options{40, 300, 0.1, 6, 1, 3, 0, 0, 1, "verbose", 1, 1, cfds}, `-trace "verbose"`},
		{options{100, 500, 0.1, 12, 3, 4, 0, 0, 4, "", 0, 1, cfds}, "-workers 0"},
		{options{100, 500, 0.1, 12, 3, 4, 0, 0, 4, "", -2, 1, cfds}, "-workers -2"},
		{options{100, 500, 0.1, 12, 3, 4, 2, 0, 1, "", 1, 0, cfds}, "-shard-workers 0"},
		{options{100, 500, 0.1, 12, 3, 4, 2, 0, 1, "", 1, -1, cfds}, "-shard-workers -1"},
		{options{100, 500, 0.1, 12, 3, 4, 0, -1, 1, "", 1, 1, cfds}, "-epoch-workers -1"},
		{options{100, 500, 0.1, 12, 3, 4, 0, 2, 1, "", 1, 1, cfds}, ""},

		// The detector is a known stack, and the serial engine runs any.
		{options{100, 500, 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1, flood}, ""},
		{options{100, 500, 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1, with(func(f *serialFlags) { f.detector = "bogus" })}, `-detector "bogus"`},
		{options{100, 500, 0.1, 12, 3, 4, 0, 2, 1, "", 1, 1, with(func(f *serialFlags) { f.detector = "bogus" })}, `-detector "bogus"`},

		// One engine at a time, and neither parallel engine takes a flag it
		// would ignore.
		{options{100, 500, 0.1, 12, 3, 4, 2, 2, 1, "", 1, 1, cfds}, "-shards 2 -epoch-workers 2"},
		{options{100, 500, 0.1, 12, 3, 4, 0, 2, 1, "", 1, 1, flood}, "ignore -detector flood"},
		{options{100, 500, 0.1, 12, 3, 4, 2, 0, 1, "", 1, 1, flood}, "ignore -detector flood"},
		{options{100, 500, 0.1, 12, 3, 4, 0, 2, 1, "", 1, 1, with(func(f *serialFlags) { f.noPeerFwd = true })}, "ignore -no-peer-forwarding"},
		{options{100, 500, 0.1, 12, 3, 4, 0, 2, 1, "", 1, 1, with(func(f *serialFlags) { f.noBGW = true })}, "ignore -no-bgw"},
		{options{100, 500, 0.1, 12, 3, 4, 2, 0, 1, "", 1, 1, with(func(f *serialFlags) { f.noAcks = true })}, "ignore -no-implicit-acks"},
		{options{100, 500, 0.1, 12, 3, 4, 0, 2, 1, "", 1, 1, with(func(f *serialFlags) { f.aggregate = true })}, "ignore -aggregate"},
		{options{100, 500, 0.1, 12, 3, 4, 0, 2, 1, "", 1, 1, with(func(f *serialFlags) { f.sleep = true })}, "ignore -sleep"},
		{options{100, 500, 0.1, 12, 3, 4, 2, 0, 1, "", 1, 1, with(func(f *serialFlags) { f.naive = true })}, "ignore -naive-sleep"},
		{options{100, 500, 0.1, 12, 3, 4, 0, 2, 1, "", 1, 1, with(func(f *serialFlags) { f.metricsJSON = "m.json" })}, "ignore -metrics"},
		{options{100, 500, 0.1, 12, 3, 4, 2, 0, 1, "", 1, 1, with(func(f *serialFlags) { f.metricsCSV = "m.csv" })}, "ignore -metrics-csv"},
		{options{100, 500, 0.1, 12, 3, 4, 0, 2, 3, "", 1, 1, cfds}, "ignore -trials 3"},
		{options{100, 500, 0.1, 12, 3, 4, 2, 0, 3, "", 1, 1, cfds}, "ignore -trials 3"},
		{options{100, 500, 0.1, 12, 3, 4, 0, 2, 3, "", 1, 1, with(func(f *serialFlags) { f.noBGW, f.metricsJSON = true, "m.json" })},
			"-epoch-workers 2: this engine runs one trial of the cluster-fds stack with every mechanism on and no metrics export; it would ignore -no-bgw -metrics -trials 3"},
		{options{100, 500, 0.1, 12, 3, 4, 0, 0, 3, "", 1, 1, with(func(f *serialFlags) { f.noBGW, f.metricsJSON = true, "m.json" })}, ""},

		// A replicated study reads 0 as its default, so it is refused.
		{options{100, 500, 0.1, 0, 3, 4, 0, 0, 3, "", 1, 1, cfds}, "-trials 3 -epochs 0"},
		{options{100, 500, 0.1, 12, 0, 4, 0, 0, 3, "", 1, 1, cfds}, "-crashes 0"},
		{options{100, 500, 0.1, 12, 3, 0, 0, 0, 3, "", 1, 1, cfds}, "-crash-epoch 0: a replicated study"},
		{options{100, 500, 0.1, 0, 0, 0, 0, 0, 1, "", 1, 1, cfds}, ""},
	} {
		err := checkFlags(c.opts)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: rejected: %v", c.opts, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one naming %q", c.opts, err, c.want)
		}
	}
}
