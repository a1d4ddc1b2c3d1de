package topo

import (
	"fmt"
	"testing"

	"repro/internal/alphatree"
	"repro/internal/stats"
	"repro/internal/tree"
)

// TestLossSweepOptimaTied covers the catalogs of the A8 loss sweep at its
// default configuration and seed 1 (experiment.LossSweep: 20 trials of 12
// keys with integer weights 1–100, Hu–Tucker, 2 channels; core.Solve runs
// Exact on 12 keys when Corollary 1 does not apply). On every trial Exact
// and the search under the packed bound return allocations of equal
// DataWait, so where the sweep's loss rows moved with the bound, they moved
// between tied optima.
func TestLossSweepOptimaTied(t *testing.T) {
	const seed, items, k = 1, 12, 2
	moved := 0
	for trial := 0; trial < 20; trial++ {
		tr := sweepTree(t, seed+int64(trial)*7919, items)
		got, err := Exact(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := Corollary1(tr, k); ok {
			t.Fatalf("trial %d: Corollary 1 applies, so the sweep does not run Exact", trial)
		}
		old, err := searchPacked(tr, Options{Channels: k, Prune: Prune{Property1: true, DataRank: true}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Alloc.DataWait() != old.Alloc.DataWait() {
			t.Fatalf("trial %d: DataWait %v, packed bound's %v", trial, got.Alloc.DataWait(), old.Alloc.DataWait())
		}
		if got.Alloc.String() != old.Alloc.String() {
			moved++
		}
	}
	t.Logf("%d of 20 trials return a different tied optimum", moved)
}

// sweepTree builds the catalog tree the experiment sweeps draw for one
// trial: items keys with integer weights 1–100 from the trial's seed, under
// Hu–Tucker.
func sweepTree(t *testing.T, seed int64, items int) *tree.Tree {
	t.Helper()
	rng := stats.NewRNG(seed)
	cat := make([]alphatree.Item, items)
	for i := range cat {
		cat[i] = alphatree.Item{Label: fmt.Sprintf("i%02d", i), Key: int64(i + 1), Weight: float64(1 + rng.Intn(100))}
	}
	tr, err := alphatree.HuTucker(cat)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestOutageBatchOptimaTied covers the catalogs of the A10 outage sweep
// (experiment.OutageSweep: 6 trials of 10 keys, solved at 3 channels and
// replanned onto 1–3 survivors) and the A11 batch sweep
// (experiment.BatchSweep: 72 trials of 12 keys, 1–3 channels) at their
// default configurations and seed 1. At every width of 2 or more where
// core.Solve runs Exact (Corollary 1 does not apply), the search under
// TightBound's bound and the one under the release-time bound alone return
// allocations of equal DataWait, so where the sweeps' rows moved with the
// index-capacity term, they moved between tied optima. The one-channel
// solves run the data tree; datatree.TestOutageBatchOptimaTied covers them.
func TestOutageBatchOptimaTied(t *testing.T) {
	type trial struct {
		name   string
		seed   int64
		items  int
		widths []int
	}
	var trials []trial
	for i := 0; i < 6; i++ {
		trials = append(trials, trial{fmt.Sprint("A10 trial ", i), 1 + int64(i)*7919, 10, []int{2, 3}})
	}
	for i := 0; i < 72; i++ { // 12 cells of 6 trials: 4 batch sizes per channel count 1, 2, 3
		if k := 1 + i/24; k > 1 {
			trials = append(trials, trial{fmt.Sprint("A11 trial ", i), 1 + int64(i)*7919, 12, []int{k}})
		}
	}
	solved, moved := 0, 0
	for _, tc := range trials {
		tr := sweepTree(t, tc.seed, tc.items)
		for _, k := range tc.widths {
			if _, ok, _ := Corollary1(tr, k); ok {
				continue
			}
			got, err := Exact(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			old, err := searchRelease(tr, Options{Channels: k, Prune: Prune{Property1: true, DataRank: true}})
			if err != nil {
				t.Fatal(err)
			}
			if got.Alloc.DataWait() != old.Alloc.DataWait() {
				t.Fatalf("%s k=%d: DataWait %v, release-time bound alone %v", tc.name, k, got.Alloc.DataWait(), old.Alloc.DataWait())
			}
			solved++
			if got.Alloc.String() != old.Alloc.String() {
				moved++
				t.Logf("%s k=%d returns a different tied optimum", tc.name, k)
			}
		}
	}
	t.Logf("%d of %d exact solves return a different tied optimum", moved, solved)
}
