package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlags pins which flag values fdsim refuses before any engine
// starts, and that the defaults and the edges of each range pass. A row's
// options are nodes, field, p, epochs, crashes, crash epoch, shards, epoch
// workers, trials and trace level.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		opts options
		want string // "" = accepted; else a substring of the error
	}{
		{options{100, 500, 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1}, ""},
		{options{1, 1e-3, 0, 0, 0, 0, 0, 0, 1, "", 1, 1}, ""},
		{options{50, 500, 1, 1, 0, 0, 4, 0, 1, "", 1, 1}, ""},
		{options{0, 500, 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1}, "-nodes 0"},
		{options{-5, 500, 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1}, "-nodes -5"},
		{options{50, 0, 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1}, "-field 0"},
		{options{50, -200, 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1}, "-field -200"},
		{options{50, math.NaN(), 0.1, 12, 3, 4, 0, 0, 1, "", 1, 1}, "-field NaN"},
		{options{50, 500, 2, 1, 3, 4, 0, 0, 1, "", 1, 1}, "-p 2"},
		{options{50, 500, -0.1, 1, 3, 4, 0, 0, 1, "", 1, 1}, "-p -0.1"},
		{options{50, 500, math.NaN(), 1, 3, 4, 0, 0, 1, "", 1, 1}, "-p NaN"},
		{options{50, 500, 0.1, -1, 3, 4, 0, 0, 1, "", 1, 1}, "-epochs -1"},
		{options{50, 500, 0.1, 1, -1, 4, 0, 0, 1, "", 1, 1}, "-crashes -1"},
		{options{50, 500, 0.1, 4, 3, -3, 0, 0, 1, "", 1, 1}, "-crash-epoch -3"},
		{options{50, 500, 0.1, 0, 3, 4, 1, 0, 1, "", 1, 1}, "-shards 1 -epochs 0"},
		{options{40, 300, 0.1, 6, 1, 3, 0, 0, 1, "protocol", 1, 1}, ""},
		{options{40, 300, 0.1, 6, 1, 3, 0, 0, 1, "radio", 1, 1}, ""},
		{options{40, 300, 0.1, 6, 1, 3, 0, 0, 1, "causes", 1, 1}, ""},
		{options{40, 300, 2, 6, 1, 3, 0, 0, 1, "protocol", 1, 1}, "-p 2"},
		{options{40, 300, 0.1, -1, 1, 3, 0, 0, 1, "protocol", 1, 1}, "-epochs -1"},
		{options{0, 300, 0.1, 6, 1, 3, 0, 0, 1, "protocol", 1, 1}, "-nodes 0"},
		{options{40, 0, 0.1, 6, 1, 3, 0, 0, 1, "protocol", 1, 1}, "-field 0"},
		{options{40, 300, 0.1, 6, -1, 3, 0, 0, 1, "protocol", 1, 1}, "-crashes -1"},
		{options{40, 300, 0.1, 6, 1, -3, 0, 0, 1, "protocol", 1, 1}, "-crash-epoch -3"},
		{options{40, 300, 0.1, 6, 1, 3, 0, 0, 3, "protocol", 1, 1}, "-trace protocol -trials 3"},
		{options{40, 300, 0.1, 6, 1, 3, 0, 2, 1, "causes", 1, 1}, "-trace causes -shards 0 -epoch-workers 2"},
		{options{40, 300, 0.1, 6, 1, 3, 2, 0, 1, "radio", 1, 1}, "-trace radio -shards 2 -epoch-workers 0"},
		{options{40, 300, 0.1, 6, 1, 3, 0, 0, 1, "verbose", 1, 1}, `-trace "verbose"`},
		{options{100, 500, 0.1, 12, 3, 4, 0, 0, 4, "", 0, 1}, "-workers 0"},
		{options{100, 500, 0.1, 12, 3, 4, 0, 0, 4, "", -2, 1}, "-workers -2"},
		{options{100, 500, 0.1, 12, 3, 4, 2, 0, 1, "", 1, 0}, "-shard-workers 0"},
		{options{100, 500, 0.1, 12, 3, 4, 2, 0, 1, "", 1, -1}, "-shard-workers -1"},
		{options{100, 500, 0.1, 12, 3, 4, 0, -1, 1, "", 1, 1}, "-epoch-workers -1"},
		{options{100, 500, 0.1, 12, 3, 4, 0, 2, 1, "", 1, 1}, ""},
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
