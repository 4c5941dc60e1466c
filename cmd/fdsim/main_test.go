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
		nodes                   int
		p                       float64
		epochs, crashes, shards int
		want                    string // "" = accepted; else a substring of the error
	}{
		{100, 0.1, 12, 3, 0, ""},
		{1, 0, 0, 0, 0, ""},
		{50, 1, 1, 0, 4, ""},
		{0, 0.1, 12, 3, 0, "-nodes 0"},
		{-5, 0.1, 12, 3, 0, "-nodes -5"},
		{50, 2, 1, 3, 0, "-p 2"},
		{50, -0.1, 1, 3, 0, "-p -0.1"},
		{50, math.NaN(), 1, 3, 0, "-p NaN"},
		{50, 0.1, -1, 3, 0, "-epochs -1"},
		{50, 0.1, 1, -1, 0, "-crashes -1"},
		{50, 0.1, 0, 3, 1, "-shards 1 -epochs 0"},
	} {
		err := checkFlags(c.nodes, c.p, c.epochs, c.crashes, c.shards)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: rejected: %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one naming %q", c, err, c.want)
		}
	}
}
