// Command fdsd runs one live node of the cluster-based failure detection
// service over UDP on localhost. It is the I/O shell around the sans-I/O
// core: the whole protocol stack (cluster formation, FDS, inter-cluster
// forwarding) runs on a virtual-time kernel inside internal/daemon, and
// this binary only supplies the impure edges — a UDP socket, the system
// clock, and POSIX signals.
//
// A 3-node localhost cluster:
//
//	fdsd -id 1 -listen 127.0.0.1:9001 -peers 2=127.0.0.1:9002,3=127.0.0.1:9003
//	fdsd -id 2 -listen 127.0.0.1:9002 -peers 1=127.0.0.1:9001,3=127.0.0.1:9003
//	fdsd -id 3 -listen 127.0.0.1:9003 -peers 1=127.0.0.1:9001,2=127.0.0.1:9002
//
// Each process reports membership and detection events as they happen; on
// SIGINT/SIGTERM it shuts down gracefully and prints a final deterministic
// state dump.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clusterfds/internal/cluster"
	"clusterfds/internal/daemon"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// realWall is the production WallClock: elapsed time since process start,
// and timer channels backed by the runtime timer wheel. This is the only
// place in the stack (outside tests) that touches package time — the
// deterministic packages are policed by internal/lint's walltime analyzer.
type realWall struct {
	start time.Time
}

func (w realWall) Elapsed() sim.Time { return time.Since(w.start) }

func (w realWall) After(d sim.Time) <-chan struct{} {
	ch := make(chan struct{})
	if d <= 0 {
		close(ch)
		return ch
	}
	time.AfterFunc(d, func() { close(ch) })
	return ch
}

// consoleSink prints the membership- and detection-relevant trace events;
// with -verbose it prints every event including per-message send/deliver.
type consoleSink struct {
	verbose bool
}

func (s consoleSink) Emit(e trace.Event) {
	switch e.Type {
	case trace.TypeSend, trace.TypeDeliver, trace.TypeDrop:
		if !s.verbose {
			return
		}
	}
	fmt.Println(e)
}

// parsePeers parses "2=127.0.0.1:9002,3=127.0.0.1:9003" into a sorted
// roster of NIDs and the matching address list.
func parsePeers(s string) ([]wire.NodeID, []string, error) {
	if s == "" {
		return nil, nil, nil
	}
	type peer struct {
		id   wire.NodeID
		addr string
	}
	var peers []peer
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, nil, fmt.Errorf("peer %q is not <nid>=<host:port>", part)
		}
		n, err := strconv.ParseUint(id, 10, 32)
		if err != nil || n == 0 {
			return nil, nil, fmt.Errorf("peer %q has invalid NID %q", part, id)
		}
		peers = append(peers, peer{id: wire.NodeID(n), addr: addr})
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].id < peers[j].id })
	ids := make([]wire.NodeID, len(peers))
	addrs := make([]string, len(peers))
	for i, p := range peers {
		ids[i] = p.id
		addrs[i] = p.addr
	}
	return ids, addrs, nil
}

func main() {
	var (
		id       = flag.Uint("id", 0, "this node's NID (required, nonzero)")
		listen   = flag.String("listen", "127.0.0.1:9001", "UDP listen address")
		peers    = flag.String("peers", "", "comma-separated peer roster: <nid>=<host:port>,...")
		seed     = flag.Int64("seed", 1, "kernel seed (jitter and backoff draws)")
		thop     = flag.Duration("thop", 20*time.Millisecond, "per-hop delay bound Thop (round length)")
		interval = flag.Duration("interval", 10*time.Second, "heartbeat interval phi (epoch length)")
		verbose  = flag.Bool("verbose", false, "also print per-message send/deliver events")
	)
	flag.Parse()
	if *id == 0 {
		fmt.Fprintln(os.Stderr, "fdsd: -id is required and must be nonzero")
		os.Exit(2)
	}
	timing := cluster.Timing{Thop: *thop, Interval: *interval}
	if !timing.Valid() {
		fmt.Fprintf(os.Stderr, "fdsd: invalid timing: interval %v must be at least 8x thop %v\n", *interval, *thop)
		os.Exit(2)
	}
	roster, addrs, err := parsePeers(*peers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdsd: %v\n", err)
		os.Exit(2)
	}

	link, err := transport.NewUDPLink(wire.NodeID(*id), *listen, addrs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdsd: %v\n", err)
		os.Exit(1)
	}
	defer link.Close()

	d := daemon.New(daemon.Config{
		ID:     wire.NodeID(*id),
		Seed:   *seed,
		Timing: timing,
		Peers:  roster,
		Trace:  consoleSink{verbose: *verbose},
	}, link)

	// SIGINT/SIGTERM close stop; the run loop finishes the event in
	// flight, advances to the current instant, and dumps final state.
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		close(stop)
	}()

	fmt.Printf("fdsd node %d listening on %v, %d peers, Thop=%v phi=%v\n",
		*id, link.LocalAddr(), len(roster), *thop, *interval)
	if err := d.Run(realWall{start: time.Now()}, stop, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "fdsd: %v\n", err)
		os.Exit(1)
	}
	// The dump's last line counts what the socket's framing threw away
	// before the daemon's port: frames too short to name a sender.
	fmt.Printf("  runt-frames: %d\n", link.Runts())
}
