package sim

import "testing"

func TestNow(t *testing.T) {
	if (&Kernel{now: 3}).Now() != 3 {
		t.Fatal("clock")
	}
}
