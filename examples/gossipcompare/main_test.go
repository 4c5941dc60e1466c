package main

import (
	"strings"
	"testing"
)

// extCTable is the example's full output: the Ext. C table in EXPERIMENTS.md
// quotes it. A change that moves any of these figures must update both.
const extCTable = `== detector stack comparison: 250 nodes, 800m field, p=0.10, 10 intervals ==

stack             tx msgs       tx bytes       energy        aware   mean lat  max lat
cluster-fds          7223         205287       592876     249/249        5.5s     5.5s
gossip               2495        6161429     15785450     136/249       50.0s    55.0s
flood              620107       11161926     34473791     249/249       39.5s    39.5s

relative to the cluster-based FDS:
  gossip   sends   0.3x the messages,  30.0x the bytes, spends  26.6x the energy
  flood    sends  85.9x the messages,  54.4x the bytes, spends  58.1x the energy
`

// TestPrintedTable pins the comparison table byte for byte, so drift in any
// of the three stacks fails here instead of leaving the documented table
// stale.
func TestPrintedTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 250-node worlds under three stacks (a few seconds)")
	}
	var b strings.Builder
	report(&b)
	if got := b.String(); got != extCTable {
		t.Errorf("gossipcompare output drifted:\n%s\nwant:\n%s", got, extCTable)
	}
}
