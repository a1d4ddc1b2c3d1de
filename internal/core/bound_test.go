package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/alphatree"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/tree"
	"repro/internal/workload"
)

// capacityDepthBound is the LowerBound before the index-aware terms, kept
// as an oracle: the larger of the capacity bound (the j-th data node at
// slot ≥ 1 + ⌈j/k⌉, heaviest first) and the depth bound (Σ W·Level).
func capacityDepthBound(t *tree.Tree, k int) float64 {
	if t.NumNodes() == 1 {
		return 1
	}
	var weights []float64
	var depth float64
	for _, d := range t.DataIDs() {
		weights = append(weights, t.Weight(d))
		depth += t.Weight(d) * float64(t.Level(d))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(weights)))
	var capacity float64
	for j, w := range weights {
		capacity += w * float64(1+(j+k)/k)
	}
	return max(capacity, depth) / t.TotalWeight()
}

// boundCorpus returns the engine corpus of the topo and datatree tests: n
// small seeded trees cycling through the paper's Fig. 1, full m-ary trees,
// workload.Random shapes and Hu–Tucker trees over random catalogs. On it,
// topo.TestReleaseBoundAdmissible holds every searched state's bound, the
// root state's included, to the exhaustive cost to go.
func boundCorpus(t *testing.T, n int) []*tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(20261018))
	dist := stats.Uniform{Lo: 1, Hi: 100}
	out := []*tree.Tree{tree.Fig1()}
	for len(out) < n {
		var tr *tree.Tree
		var err error
		switch len(out) % 4 {
		case 0:
			shapes := [][2]int{{2, 2}, {2, 3}, {3, 2}, {4, 2}}
			s := shapes[rng.Intn(len(shapes))]
			tr, err = workload.FullMAry(s[0], s[1], dist, stats.NewRNG(rng.Int63()))
		case 1, 2:
			tr, err = workload.Random(workload.RandomConfig{NumData: 2 + rng.Intn(5), Dist: dist},
				stats.NewRNG(rng.Int63()))
		case 3:
			var items []alphatree.Item
			for _, it := range workload.Catalog(2+rng.Intn(5), dist, stats.NewRNG(rng.Int63())) {
				items = append(items, alphatree.Item{Label: it.Label, Key: it.Key, Weight: it.Weight})
			}
			tr, err = alphatree.HuTucker(items)
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// TestLowerBoundBelowOptimum holds LowerBound between the capacity and
// depth bounds it replaced and the Exact optimum, on 1,000 seeded small
// trees at k = 1–4, and logs how much of the gap to the optimum it closes.
func TestLowerBoundBelowOptimum(t *testing.T) {
	var oldSum, newSum float64
	n := 0
	for i, tr := range boundCorpus(t, 1000) {
		for k := 1; k <= 4; k++ {
			lb, err := LowerBound(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := topo.Exact(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			old := capacityDepthBound(tr, k)
			if !(old <= lb+1e-9 && lb <= opt.Cost+1e-9) {
				t.Fatalf("tree %d k=%d: capacity/depth %v, bound %v, optimum %v", i, k, old, lb, opt.Cost)
			}
			oldSum += opt.Cost / old
			newSum += opt.Cost / lb
			n++
		}
	}
	t.Logf("mean optimum/bound over %d solves: %.4f, capacity/depth alone %.4f", n, newSum/float64(n), oldSum/float64(n))
}
