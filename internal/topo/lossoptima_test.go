package topo

import (
	"fmt"
	"testing"

	"repro/internal/alphatree"
	"repro/internal/stats"
)

// TestLossSweepOptimaTied covers the catalogs of the A8 loss sweep at its
// default configuration and seed 1 (experiment.LossSweep: 20 trials of 12
// keys with integer weights 1–100, Hu–Tucker, 2 channels; core.Solve runs
// Exact on 12 keys when Corollary 1 does not apply). On every trial the release-time search and the packed
// bound it replaced return allocations of equal DataWait, so where the
// sweep's loss rows moved with the bound, they moved between tied optima.
func TestLossSweepOptimaTied(t *testing.T) {
	const seed, items, k = 1, 12, 2
	moved := 0
	for trial := 0; trial < 20; trial++ {
		rng := stats.NewRNG(seed + int64(trial)*7919)
		cat := make([]alphatree.Item, items)
		for i := range cat {
			cat[i] = alphatree.Item{Label: fmt.Sprintf("i%02d", i), Key: int64(i + 1), Weight: float64(1 + rng.Intn(100))}
		}
		tr, err := alphatree.HuTucker(cat)
		if err != nil {
			t.Fatal(err)
		}
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
