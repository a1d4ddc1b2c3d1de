package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestFaultSweepGoldens pins the full-precision result rows of the
// client-protocol experiments — A8 (loss), A9 (adapt), A10 (outage), A11
// (batch) and A12 (restart) — at their default configurations and seed 1.
// The rendered tables round to three decimals; these goldens hold every
// float bit of every row (%v of the returned structs), so any change to
// the client protocol's accounting shows up here. Regenerate with
// go test ./internal/experiment -run TestFaultSweepGoldens -update only
// when a change to the protocol is intended.
func TestFaultSweepGoldens(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (any, error)
	}{
		{"a8_loss", func() (any, error) { return LossSweep(LossConfig{Seed: 1, Workers: 1}) }},
		{"a9_adapt", func() (any, error) { return AdaptSweep(AdaptConfig{Seed: 1, Workers: 1}) }},
		{"a10_outage", func() (any, error) { return OutageSweep(OutageSweepConfig{Seed: 1, Workers: 1}) }},
		{"a11_batch", func() (any, error) { return BatchSweep(BatchConfig{Seed: 1, Workers: 1}) }},
		{"a12_restart", func() (any, error) {
			rows, replay, err := RestartSweep(RestartSweepConfig{Seed: 1, Workers: 1})
			return []any{rows, replay}, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkGolden(t, tc.name, tc.run) })
	}
}

// TestHeuristicGoldens pins the full-precision result rows of the
// experiments that run the Section 4.2 heuristics — A1 (ChannelSweep), A3
// (HeuristicQuality), A7 (LargeScale) and the multi-channel Fig. 14
// extension — at their default configurations and seed 1. Any change to
// Index Tree Sorting, the 1_To_k procedure or Polish that moves a single
// float bit shows up here. Regenerate with
// go test ./internal/experiment -run TestHeuristicGoldens -update only
// when a change to the heuristics' output is intended.
func TestHeuristicGoldens(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (any, error)
	}{
		{"a1_channel_sweep", func() (any, error) { return ChannelSweep(ChannelSweepConfig{Seed: 1}) }},
		{"a3_heuristic_quality", func() (any, error) {
			return HeuristicQuality(HeuristicQualityConfig{Seed: 1, Workers: 1})
		}},
		{"a7_large_scale", func() (any, error) { return LargeScale(LargeScaleConfig{Seed: 1, Workers: 1}) }},
		{"fig14_multi", func() (any, error) { return Fig14Multi(Fig14MultiConfig{Seed: 1, Workers: 1}) }},
	} {
		t.Run(tc.name, func(t *testing.T) { checkGolden(t, tc.name, tc.run) })
	}
}

// checkGolden compares %v of run's result with testdata/<name>.golden, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, run func() (any, error)) {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(fmt.Sprintf("%v\n", res))
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s rows changed:\ngot:  %s\nwant: %s", name, got, want)
	}
}
