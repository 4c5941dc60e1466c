package sim_test

import (
	"testing"

	"clusterfds/internal/scenario"
	"clusterfds/internal/sim"
)

func TestStamp(t *testing.T) {
	var k *sim.Kernel = scenario.Kernel()
	if sim.Stamp() == 0 || k.Now() != 0 {
		t.Fatal("zero stamp or nonzero clock")
	}
}
