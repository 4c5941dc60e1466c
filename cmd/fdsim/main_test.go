package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlags pins which flag values fdsim refuses before any engine
// starts, and that the defaults and the edges of each range pass.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		nodes                               int
		field, p                            float64
		epochs, crashes, shards, crashEpoch int
		want                                string // "" = accepted; else a substring of the error
	}{
		{100, 500, 0.1, 12, 3, 0, 4, ""},
		{1, 1e-3, 0, 0, 0, 0, 0, ""},
		{50, 500, 1, 1, 0, 4, 0, ""},
		{0, 500, 0.1, 12, 3, 0, 4, "-nodes 0"},
		{-5, 500, 0.1, 12, 3, 0, 4, "-nodes -5"},
		{50, 0, 0.1, 12, 3, 0, 4, "-field 0"},
		{50, -200, 0.1, 12, 3, 0, 4, "-field -200"},
		{50, math.NaN(), 0.1, 12, 3, 0, 4, "-field NaN"},
		{50, 500, 2, 1, 3, 0, 4, "-p 2"},
		{50, 500, -0.1, 1, 3, 0, 4, "-p -0.1"},
		{50, 500, math.NaN(), 1, 3, 0, 4, "-p NaN"},
		{50, 500, 0.1, -1, 3, 0, 4, "-epochs -1"},
		{50, 500, 0.1, 1, -1, 0, 4, "-crashes -1"},
		{50, 500, 0.1, 4, 3, 0, -3, "-crash-epoch -3"},
		{50, 500, 0.1, 0, 3, 1, 4, "-shards 1 -epochs 0"},
	} {
		err := checkFlags(c.nodes, c.field, c.p, c.epochs, c.crashes, c.crashEpoch, c.shards)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: rejected: %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one naming %q", c, err, c.want)
		}
	}
}
