package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/alphatree"
	"repro/internal/tree"
)

func catalogFile(t *testing.T, n int) string {
	t.Helper()
	items := make([]alphatree.Item, n)
	for i := range items {
		items[i] = alphatree.Item{Label: "k", Key: int64(i + 1), Weight: float64(10 * (n - i))}
	}
	tr, err := alphatree.HuTucker(items)
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "catalog.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLiveEndToEnd(t *testing.T) {
	var sb strings.Builder
	if err := run(catalogFile(t, 8), liveOpts{k: 2, clients: 4, seed: 1}, &sb); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "all 4 live lookups matched the analytic simulator exactly") {
		t.Fatalf("missing success line:\n%s", out)
	}
	if strings.Contains(out, "false") {
		t.Fatalf("some lookup failed or diverged:\n%s", out)
	}
}

func TestLiveSingleClient(t *testing.T) {
	var sb strings.Builder
	if err := run(catalogFile(t, 3), liveOpts{k: 1, clients: 1, seed: 2}, &sb); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, sb.String())
	}
}

func TestLiveRejectsUnkeyedTree(t *testing.T) {
	data, err := tree.Fig1().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "unkeyed.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, liveOpts{k: 1, clients: 1, seed: 1}, &strings.Builder{}); err == nil {
		t.Fatal("want error for unkeyed tree")
	}
}

func TestLiveMissingFile(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "none.json"), liveOpts{k: 1, clients: 1, seed: 1}, &strings.Builder{}); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestLiveLossyEndToEnd(t *testing.T) {
	var sb strings.Builder
	opt := liveOpts{k: 2, clients: 4, seed: 3, drop: 0.2, corrupt: 0.1, stall: 0.1, retries: 64}
	if err := run(catalogFile(t, 8), opt, &sb); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "lossy medium") {
		t.Fatalf("missing fault banner:\n%s", out)
	}
	if !strings.Contains(out, "all 4 live lookups matched the analytic simulator exactly") {
		t.Fatalf("missing success line:\n%s", out)
	}
}

func TestLiveHotSwapEndToEnd(t *testing.T) {
	var sb strings.Builder
	opt := liveOpts{k: 3, clients: 6, seed: 1, swap: 5}
	if err := run(catalogFile(t, 10), opt, &sb); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "hot swap: epoch 2") {
		t.Fatalf("missing swap banner:\n%s", out)
	}
	if !strings.Contains(out, "swaps landed: 1") {
		t.Fatalf("the staged epoch never landed (or landed twice):\n%s", out)
	}
	if !strings.Contains(out, "all 6 live lookups matched the adaptive simulator exactly") {
		t.Fatalf("missing success line:\n%s", out)
	}
}

func TestLiveHotSwapLossy(t *testing.T) {
	var sb strings.Builder
	opt := liveOpts{k: 3, clients: 5, seed: 7, swap: 5, drop: 0.2, corrupt: 0.1, retries: 64}
	if err := run(catalogFile(t, 10), opt, &sb); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "lossy medium") {
		t.Fatalf("missing fault banner:\n%s", out)
	}
	if !strings.Contains(out, "all 5 live lookups matched the adaptive simulator exactly") {
		t.Fatalf("missing success line:\n%s", out)
	}
}

func TestLiveOutageEndToEnd(t *testing.T) {
	var sb strings.Builder
	out, err := parseOutages("1:12:60,2:30:70")
	if err != nil {
		t.Fatal(err)
	}
	opt := liveOpts{k: 3, clients: 8, seed: 1, drop: 0.1, retries: 48, outages: out}
	if err := run(catalogFile(t, 12), opt, &sb); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, sb.String())
	}
	got := sb.String()
	if !strings.Contains(got, "replans will air") {
		t.Fatalf("missing outage banner:\n%s", got)
	}
	if !strings.Contains(got, "all 8 live lookups matched the outage simulator exactly") {
		t.Fatalf("missing success line:\n%s", got)
	}
	if !strings.Contains(got, "channels live: [1 2 3]") {
		t.Fatalf("tower did not recover to full width:\n%s", got)
	}
}

func TestLiveOutageFlagErrors(t *testing.T) {
	if _, err := parseOutages("1:10"); err == nil {
		t.Fatal("want error for malformed window")
	}
	if _, err := parseOutages("0:10:20"); err == nil {
		t.Fatal("want error for channel 0")
	}
	if _, err := parseOutages("1:20:10"); err == nil {
		t.Fatal("want error for inverted window")
	}
}

func TestLiveBatchEndToEnd(t *testing.T) {
	var sb strings.Builder
	opt := liveOpts{k: 2, clients: 4, seed: 1, batchKeys: []int64{1, 3, 5, 7}}
	if err := run(catalogFile(t, 8), opt, &sb); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "batch retrieval: 4 keys per client") {
		t.Fatalf("missing batch banner:\n%s", out)
	}
	if !strings.Contains(out, "all 4 live batch retrievals matched the analytic simulator exactly") {
		t.Fatalf("missing success line:\n%s", out)
	}
	if strings.Contains(out, "false") {
		t.Fatalf("some batch diverged:\n%s", out)
	}
}

func TestLiveBatchLossy(t *testing.T) {
	var sb strings.Builder
	opt := liveOpts{k: 2, clients: 3, seed: 5, drop: 0.2, corrupt: 0.1, retries: 64,
		batchKeys: []int64{2, 4, 6}}
	if err := run(catalogFile(t, 8), opt, &sb); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "lossy medium") {
		t.Fatalf("missing fault banner:\n%s", out)
	}
	if !strings.Contains(out, "all 3 live batch retrievals matched the analytic simulator exactly") {
		t.Fatalf("missing success line:\n%s", out)
	}
}

func TestLiveBatchFlagErrors(t *testing.T) {
	if _, err := parseBatchKeys("1,x,3"); err == nil {
		t.Fatal("want error for non-numeric key")
	}
	keys, err := parseBatchKeys(" 1, 2 ,3")
	if err != nil || len(keys) != 3 {
		t.Fatalf("parseBatchKeys = %v, %v", keys, err)
	}
	path := catalogFile(t, 4)
	if err := run(path, liveOpts{k: 1, clients: 1, seed: 1, batchKeys: []int64{99}}, &strings.Builder{}); err == nil {
		t.Fatal("want error for key missing from the catalog")
	}
	opt := liveOpts{k: 1, clients: 1, seed: 1, batchKeys: []int64{1}, swap: 5}
	if err := run(path, opt, &strings.Builder{}); err == nil {
		t.Fatal("want error combining -batch with -swap")
	}
}

func TestLiveBudgetExhaustionAgrees(t *testing.T) {
	var sb strings.Builder
	opt := liveOpts{k: 1, clients: 2, seed: 4, drop: 1, retries: 3}
	if err := run(catalogFile(t, 4), opt, &sb); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "budget exhausted (as predicted)") {
		t.Fatalf("missing agreement line:\n%s", sb.String())
	}
}

func TestLiveFlagErrors(t *testing.T) {
	path := catalogFile(t, 4)
	for name, opt := range map[string]liveOpts{
		"negative clients":  {k: 1, clients: -1, seed: 1},
		"zero downtime":     {k: 1, clients: 1, seed: 1, kill: 12, restartAfter: 0},
		"negative downtime": {k: 1, clients: 1, seed: 1, kill: 12, restartAfter: -3},
	} {
		var sb strings.Builder
		if err := run(path, opt, &sb); err == nil {
			t.Errorf("%s: want an error", name)
		}
		// Bad flags are rejected before the tower listens or says a word.
		if sb.Len() > 0 {
			t.Errorf("%s: printed before rejecting:\n%s", name, sb.String())
		}
	}
}

// TestLiveOutputDeterministic runs the crash demo twice: with clients
// reconnecting at different wall-clock moments, everything but the
// loopback address must still come out byte for byte the same.
func TestLiveOutputDeterministic(t *testing.T) {
	path := catalogFile(t, 10)
	opt := liveOpts{k: 2, clients: 6, seed: 2, kill: 12, restartAfter: 5, drop: 0.1, retries: 64}
	var outs [2]string
	for i := range outs {
		var sb strings.Builder
		if err := run(path, opt, &sb); err != nil {
			t.Fatalf("%v\noutput:\n%s", err, sb.String())
		}
		first, rest, _ := strings.Cut(sb.String(), "\n")
		if !strings.HasPrefix(first, "broadcasting ") {
			t.Fatalf("first line is not the address line:\n%s", sb.String())
		}
		outs[i] = rest
	}
	if outs[0] != outs[1] {
		t.Fatalf("two runs differ past the address line:\n%s\n---\n%s", outs[0], outs[1])
	}
}
