package main

import (
	"slices"
	"strings"
	"testing"

	"clusterfds/internal/wire"
)

// TestParsePeers pins the roster fdsd accepts: sorted by NID with the
// addresses kept alongside, and never its own -id or a NID twice.
func TestParsePeers(t *testing.T) {
	for _, c := range []struct {
		peers string
		self  wire.NodeID
		ids   []wire.NodeID
		addrs []string
		want  string // "" = accepted; else a substring of the error
	}{
		{"", 1, nil, nil, ""},
		{"3=127.0.0.1:9003, 2=127.0.0.1:9002", 1,
			[]wire.NodeID{2, 3}, []string{"127.0.0.1:9002", "127.0.0.1:9003"}, ""},
		{"2=127.0.0.1:9002,1=127.0.0.1:9001", 1, nil, nil, `peer "1=127.0.0.1:9001" is this node's own -id`},
		{"2=127.0.0.1:9002,3=127.0.0.1:9003,2=127.0.0.1:9004", 1, nil, nil, "peer NID 2 is listed twice"},
		{"2=127.0.0.1:9002,127.0.0.1:9003", 1, nil, nil, "is not <nid>=<host:port>"},
		{"0=127.0.0.1:9002", 1, nil, nil, `invalid NID "0"`},
		{"x=127.0.0.1:9002", 1, nil, nil, `invalid NID "x"`},
	} {
		ids, addrs, err := parsePeers(c.peers, c.self)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%q: rejected: %v", c.peers, err)
		case c.want == "" && (!slices.Equal(ids, c.ids) || !slices.Equal(addrs, c.addrs)):
			t.Errorf("%q: roster %v %v, want %v %v", c.peers, ids, addrs, c.ids, c.addrs)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%q: error %v, want one naming %q", c.peers, err, c.want)
		}
	}
}
