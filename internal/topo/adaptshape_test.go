package topo

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alphatree"
	"repro/internal/tree"
)

// adaptShapeTrees returns 200 seeded Hu–Tucker trees over 12 keys, the
// shape an adaptive station's replans hand to Exact, with the weight of
// key j drawn by weight.
func adaptShapeTrees(b *testing.B, seed int64, weight func(rng *rand.Rand, perm []int, j int) float64) []*tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tree.Tree, 200)
	for i := range out {
		items := make([]alphatree.Item, 12)
		perm := rng.Perm(len(items))
		for j := range items {
			items[j] = alphatree.Item{Label: fmt.Sprint("K", j), Key: int64(j), Weight: weight(rng, perm, j)}
		}
		tr, err := alphatree.HuTucker(items)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = tr
	}
	return out
}

// BenchmarkExactAdaptShape times Exact at k = 3 on two fixed 200-tree
// sets: shuffled Zipf(1.0) weights, and integer weights 1–20 like a
// station's request counts. One op solves one tree, cycling through the
// set; expanded/op is the set's mean, the same at every b.N, so search
// effort compares across builds.
func BenchmarkExactAdaptShape(b *testing.B) {
	for _, set := range []struct {
		name   string
		seed   int64
		weight func(rng *rand.Rand, perm []int, j int) float64
	}{
		{"zipf", 1, func(_ *rand.Rand, perm []int, j int) float64 { return 1 / float64(perm[j]+1) }},
		{"int20", 2, func(rng *rand.Rand, _ []int, _ int) float64 { return float64(1 + rng.Intn(20)) }},
	} {
		b.Run(set.name, func(b *testing.B) {
			trees := adaptShapeTrees(b, set.seed, set.weight)
			expanded := 0
			for _, tr := range trees {
				res, err := Exact(tr, 3)
				if err != nil {
					b.Fatal(err)
				}
				expanded += res.Expanded
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Exact(trees[i%len(trees)], 3); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(expanded)/float64(len(trees)), "expanded/op")
		})
	}
}
