package main

import (
	"strings"
	"testing"

	"repro/internal/epoch"
)

func TestStationLoopShiftsHotSet(t *testing.T) {
	var sb strings.Builder
	if err := run(30, 5, 2, 8, 400, 4, 0.9, 0.4, 1, &sb, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "rebuilds") {
		t.Fatalf("missing totals:\n%s", out)
	}
	if !strings.Contains(out, "true") {
		t.Fatalf("the demand shift never triggered a rebuild:\n%s", out)
	}
	if !strings.Contains(out, "final broadcast:") {
		t.Fatalf("missing final allocation:\n%s", out)
	}
}

func TestStationLoopErrors(t *testing.T) {
	if err := run(3, 5, 1, 2, 10, 1, 0.9, 0.4, 1, &strings.Builder{}, nil); err == nil {
		t.Fatal("want error for universe < hot")
	}
}

func TestStationAsyncPipelinesRebuilds(t *testing.T) {
	var sb strings.Builder
	if err := runAsync(30, 5, 2, 8, 400, 4, 0.9, 0.4, 1, "", false, &sb, nil); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	// Every period kicks a build; the first period still airs epoch 1 and
	// each later one airs the epoch staged the period before.
	if !strings.Contains(out, "planner: 8 builds, 8 staged, 0 failed") {
		t.Fatalf("planner did not stage every build:\n%s", out)
	}
	if !strings.Contains(out, "registry: 8 staged, 7 swapped") {
		t.Fatalf("swaps did not trail stagings by exactly one period:\n%s", out)
	}
	if !strings.Contains(out, "8 installs") {
		t.Fatalf("hot-set installs did not track the swaps:\n%s", out)
	}
	if !strings.Contains(out, "final broadcast:") {
		t.Fatalf("missing final allocation:\n%s", out)
	}
}

func TestStationAsyncErrors(t *testing.T) {
	if err := runAsync(3, 5, 1, 2, 10, 1, 0.9, 0.4, 1, "", false, &strings.Builder{}, nil); err == nil {
		t.Fatal("want error for universe < hot")
	}
}

func TestStationCheckpointResume(t *testing.T) {
	ckpt := t.TempDir() + "/station.ckpt"
	var first strings.Builder
	if err := runAsync(30, 5, 2, 4, 400, 2, 0.9, 0.4, 1, ckpt, false, &first, nil); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, first.String())
	}
	// 4 periods staged 4 epochs and swapped 3, so the checkpointed registry
	// resumes with epoch 4 active and the 4-period pending (epoch 5) still
	// staged; the warm start promotes that pending without a hot-set install.
	var second strings.Builder
	if err := runAsync(30, 5, 2, 4, 400, 2, 0.9, 0.4, 2, ckpt, true, &second, nil); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, second.String())
	}
	out := second.String()
	if !strings.Contains(out, "warm start: resumed epoch 4") {
		t.Fatalf("registry did not resume from the checkpoint:\n%s", out)
	}
	if !strings.Contains(out, "promoted checkpointed pending epoch 5") {
		t.Fatalf("checkpointed pending epoch was not promoted:\n%s", out)
	}
	// Epoch IDs continue across the restart: the resumed run airs 5..8,
	// never reusing an ID the first run aired, and the registry's lifecycle
	// counters accumulate across both processes.
	lastEpoch := ""
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "4" {
			lastEpoch = f[1]
		}
	}
	if lastEpoch != "8" {
		t.Fatalf("final period aired epoch %q, want 8 (IDs must continue past the checkpoint):\n%s", lastEpoch, out)
	}
	if !strings.Contains(out, "registry: 8 staged, 7 swapped") {
		t.Fatalf("lifecycle counters did not continue past the checkpoint:\n%s", out)
	}
	// The checkpoint stays one span long however many swaps land (the
	// station has no clients to re-request a past slot), and a resume
	// from it still continues the epoch IDs.
	long := t.TempDir() + "/long.ckpt"
	var many strings.Builder
	if err := runAsync(30, 5, 2, 20, 400, 10, 0.9, 0.4, 1, long, false, &many, nil); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, many.String())
	}
	if !strings.Contains(many.String(), "registry: 20 staged, 19 swapped") {
		t.Fatalf("long run did not swap every period:\n%s", many.String())
	}
	c, err := epoch.LoadCheckpoint(long)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Spans) != 1 {
		t.Fatalf("checkpoint after 19 swaps holds %d spans, want 1", len(c.Spans))
	}
	var resumed strings.Builder
	if err := runAsync(30, 5, 2, 1, 400, 10, 0.9, 0.4, 2, long, true, &resumed, nil); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, resumed.String())
	}
	if !strings.Contains(resumed.String(), "warm start: resumed epoch 20 at slot") ||
		!strings.Contains(resumed.String(), "(1 spans, next epoch 22)") {
		t.Fatalf("resume from the compacted checkpoint did not continue epoch IDs:\n%s", resumed.String())
	}

	// A garbage file falls back to a cold start instead of failing the run.
	bad := t.TempDir() + "/bad.ckpt"
	if err := runAsync(30, 5, 2, 2, 400, 1, 0.9, 0.4, 1, bad, true, &strings.Builder{}, nil); err != nil {
		t.Fatalf("missing checkpoint did not fall back cold: %v", err)
	}
}
