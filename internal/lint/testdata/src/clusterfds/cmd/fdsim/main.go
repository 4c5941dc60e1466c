// Command fdsim stands in for a CLI: it times its own run, which is legal
// outside the deterministic packages, so walltime must not fire here.
package main

import (
	"fmt"
	"time"
)

func main() { fmt.Println(time.Now()) }
