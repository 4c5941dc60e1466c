// Package clusterfds is a full reproduction of "Cluster-Based Failure
// Detection Service for Large-Scale Ad Hoc Wireless Network Applications"
// (Tai, Tso, Sanders — DSN 2004): the cluster-formation algorithm, the
// three-round heartbeat/digest/update failure detection service, the
// gateway-based inter-cluster failure-report forwarding with implicit
// acknowledgments and backup-gateway assistance, a discrete-event wireless
// network simulator to run it all on, the paper's closed-form probabilistic
// analysis, and Monte-Carlo cross-validation of the two against each other.
//
// Start with README.md for the tour, DESIGN.md for the paper-to-code map,
// and EXPERIMENTS.md for the reproduced figures. The benchmark harness in
// bench_test.go regenerates every evaluation artifact:
//
//	go test -bench=. -benchmem
//
// The library lives under internal/; cmd/fdsim, cmd/fdsfigs and cmd/fdsd
// are the command-line entry points, and examples/ holds four runnable
// scenarios.
package clusterfds
