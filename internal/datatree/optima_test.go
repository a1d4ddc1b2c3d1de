package datatree

import (
	"fmt"
	"testing"

	"repro/internal/alphatree"
	"repro/internal/stats"
	"repro/internal/topo"
)

// TestOutageBatchOptimaTied is topo.TestOutageBatchOptimaTied's
// one-channel half: the A10 outage sweep's catalogs (6 trials of 10 keys,
// replanned onto one survivor) and the A11 batch sweep's one-channel
// trials (the first 24 of 72, 12 keys) at their default configurations
// and seed 1. Where core.Solve runs the data tree (Corollary 1 does not
// apply), Search and the search under the release-time bound alone return
// allocations of equal DataWait.
func TestOutageBatchOptimaTied(t *testing.T) {
	type trial struct {
		name  string
		seed  int64
		items int
	}
	var trials []trial
	for i := 0; i < 6; i++ {
		trials = append(trials, trial{fmt.Sprint("A10 trial ", i), 1 + int64(i)*7919, 10})
	}
	for i := 0; i < 24; i++ {
		trials = append(trials, trial{fmt.Sprint("A11 trial ", i), 1 + int64(i)*7919, 12})
	}
	solved, moved := 0, 0
	for _, tc := range trials {
		rng := stats.NewRNG(tc.seed)
		cat := make([]alphatree.Item, tc.items)
		for i := range cat {
			cat[i] = alphatree.Item{Label: fmt.Sprintf("i%02d", i), Key: int64(i + 1), Weight: float64(1 + rng.Intn(100))}
		}
		tr, err := alphatree.HuTucker(cat)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := topo.Corollary1(tr, 1); ok {
			continue
		}
		got, err := Search(tr, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		old, err := searchRelease(tr, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got.Alloc.DataWait() != old.Alloc.DataWait() {
			t.Fatalf("%s: DataWait %v, release-time bound alone %v", tc.name, got.Alloc.DataWait(), old.Alloc.DataWait())
		}
		solved++
		if got.Alloc.String() != old.Alloc.String() {
			moved++
		}
	}
	t.Logf("%d of %d data-tree solves return a different tied optimum", moved, solved)
}
