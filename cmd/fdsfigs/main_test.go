package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the test binary as fdsfigs itself when FDSFIGS_MAIN is set,
// so that a test can check the command's exit status.
func TestMain(m *testing.M) {
	if os.Getenv("FDSFIGS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCheckCounts pins that fdsfigs refuses a trial, matrix-trial or worker
// count below one with exit status 2 and one message, before any figure
// prints, and accepts counts of one and the defaults.
func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		args []string
		bad  bool
	}{
		{[]string{"-trials", "-5", "-fig", "B"}, true},
		{[]string{"-trials", "0", "-fig", "B"}, true},
		{[]string{"-matrix-trials", "0", "-fig", "I"}, true},
		{[]string{"-workers", "0", "-fig", "A"}, true},
		{[]string{"-workers", "-1", "-fig", "5"}, true},
		{[]string{"-trials", "1", "-matrix-trials", "1", "-workers", "1", "-fig", "5", "-format", "tsv"}, false},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "FDSFIGS_MAIN=1")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case c.bad && (!errors.As(err, &exit) || exit.ExitCode() != 2):
			t.Errorf("fdsfigs %s: exit %v, want status 2", strings.Join(c.args, " "), err)
		case c.bad && (stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 || !strings.Contains(stderr.String(), "must be at least 1")):
			t.Errorf("fdsfigs %s: stdout %q, stderr %q; want no output and one message", strings.Join(c.args, " "), stdout.String(), stderr.String())
		case !c.bad && err != nil:
			t.Errorf("fdsfigs %s: %v\n%s", strings.Join(c.args, " "), err, stderr.String())
		}
	}
	for _, c := range []struct{ trials, matrixTrials, workers int }{{1, 1, 1}, {2000, 5, 4}} {
		if err := checkCounts(c.trials, c.matrixTrials, c.workers); err != nil {
			t.Errorf("checkCounts%v: %v", c, err)
		}
	}
}
