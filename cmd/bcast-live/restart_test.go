package main

import (
	"strings"
	"testing"
)

// TestLiveRestartEndToEnd crash-tests the station on a perfect medium:
// the tower dies mid-run, warm-starts from its checkpoint on the same
// port, and every client that rode through the crash must match the
// analytic restart twin.
func TestLiveRestartEndToEnd(t *testing.T) {
	var sb strings.Builder
	opt := liveOpts{k: 2, clients: 4, seed: 1, kill: 12, restartAfter: 5}
	if err := run(catalogFile(t, 10), opt, &sb); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "station killed at slot 12") {
		t.Fatalf("the station was never killed:\n%s", out)
	}
	if !strings.Contains(out, "all 4 live lookups matched the restart simulator exactly") {
		t.Fatalf("missing success line:\n%s", out)
	}
}

// TestLiveRestartLossy crashes the station under a lossy medium with
// enough clients that several must reconnect to the warm-restarted tower
// at different slots. The tower may not air a slot until every client
// still in flight is back, or late reconnectors pay extra cycles the twin
// does not predict.
func TestLiveRestartLossy(t *testing.T) {
	var sb strings.Builder
	opt := liveOpts{k: 2, clients: 6, seed: 2, kill: 12, restartAfter: 5, drop: 0.1, retries: 64}
	if err := run(catalogFile(t, 10), opt, &sb); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "station killed at slot 12") {
		t.Fatalf("the station was never killed:\n%s", out)
	}
	if !strings.Contains(out, "all 6 live lookups matched the restart simulator exactly") {
		t.Fatalf("missing success line:\n%s", out)
	}
}
