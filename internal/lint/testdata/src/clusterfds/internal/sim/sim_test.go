package sim_test

import (
	"testing"

	"clusterfds/internal/sim"
)

func TestStamp(t *testing.T) {
	if sim.Stamp() == 0 {
		t.Fatal("zero stamp")
	}
}
