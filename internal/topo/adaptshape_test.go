package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/alphatree"
	"repro/internal/heuristic"
	"repro/internal/tree"
)

// adaptShapeTrees returns n seeded Hu–Tucker trees over keys keys, the
// shape an adaptive station's replans hand to Exact, with the weight of
// key j drawn by weight.
func adaptShapeTrees(b *testing.B, seed int64, n, keys int, weight func(rng *rand.Rand, perm []int, j int) float64) []*tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tree.Tree, n)
	for i := range out {
		items := make([]alphatree.Item, keys)
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
			trees := adaptShapeTrees(b, set.seed, 200, 12, set.weight)
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

// BenchmarkExact16 sizes the case for raising Auto's exact-search limit
// (core.Config.MaxExactData, 12): Exact at k = 2 and k = 3 on 20 seeded
// 16-key Hu–Tucker trees with shuffled Zipf(1.0) weights. One op solves
// one tree, cycling through the set, so run it for a multiple of 20 ops
// (-benchtime 40x). Beside ns/op it reports expanded/op (the set's mean),
// the p50 and p90 solve time over the ops, and gap%: how far
// Sorting+Polish, what Auto airs at 16 keys today, is above the optimum on
// average over the set.
func BenchmarkExact16(b *testing.B) {
	zipf := func(_ *rand.Rand, perm []int, j int) float64 { return 1 / float64(perm[j]+1) }
	trees := adaptShapeTrees(b, 3, 20, 16, zipf)
	for _, k := range []int{2, 3} {
		b.Run(fmt.Sprint("k=", k), func(b *testing.B) {
			expanded, gap := 0, 0.0
			for _, tr := range trees {
				res, err := Exact(tr, k)
				if err != nil {
					b.Fatal(err)
				}
				sorted, err := heuristic.AllocateSorted(tr, k)
				if err != nil {
					b.Fatal(err)
				}
				polished, _, err := heuristic.Polish(sorted)
				if err != nil {
					b.Fatal(err)
				}
				expanded += res.Expanded
				gap += polished.DataWait()/res.Cost - 1
			}
			times := make([]time.Duration, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range times {
				start := time.Now()
				if _, err := Exact(trees[i%len(trees)], k); err != nil {
					b.Fatal(err)
				}
				times[i] = time.Since(start)
			}
			b.StopTimer()
			slices.Sort(times)
			b.ReportMetric(float64(expanded)/float64(len(trees)), "expanded/op")
			b.ReportMetric(float64(times[len(times)/2].Microseconds())/1000, "p50-ms")
			b.ReportMetric(float64(times[len(times)*9/10].Microseconds())/1000, "p90-ms")
			b.ReportMetric(100*gap/float64(len(trees)), "gap%")
		})
	}
}
