package arenaescape_test

import (
	"strings"
	"testing"

	"clusterfds/internal/lint"
	"clusterfds/internal/lint/arenaescape"
	"clusterfds/internal/lint/lintest"
)

func TestArenaEscape(t *testing.T) {
	lintest.Run(t, "testdata", arenaescape.Analyzer,
		"clusterfds/internal/cluster",
	)
}

// TestInterprocCatchesCrossFunctionRetention pins the property the
// interprocedural summary layer exists for: a store hidden behind one helper
// call (the keep and publish fixtures) is caught at the call site.
func TestInterprocCatchesCrossFunctionRetention(t *testing.T) {
	u := lintest.Load(t, "testdata", "clusterfds/internal/cluster")
	diags, err := lint.Run(arenaescape.Analyzer, u)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var byKeep, byPublish bool
	for _, d := range diags {
		byKeep = byKeep || strings.Contains(d.Message, "by keep")
		byPublish = byPublish || strings.Contains(d.Message, "passed to publish")
	}
	if !byKeep || !byPublish {
		t.Errorf("analyzer missed a cross-function retention fixture (keep=%v publish=%v)", byKeep, byPublish)
	}
}
