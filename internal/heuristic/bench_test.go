package heuristic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/alphatree"
	"repro/internal/stats"
	"repro/internal/tree"
)

type catalogKey struct {
	n        int
	permuted bool
}

// catalogs memoizes zipfCatalog: every benchmark here reuses the same
// catalogs, and building the 10⁵-key ones takes a tenth of a second.
var catalogs = map[catalogKey]*tree.Tree{}

// zipfCatalog builds the Hu–Tucker index of n keys with Zipf(0.8)
// weights, either in key order (the heaviest key first) or shuffled over
// the keys with a fixed seed.
func zipfCatalog(b *testing.B, n int, permuted bool) *tree.Tree {
	b.Helper()
	if tr, ok := catalogs[catalogKey{n, permuted}]; ok {
		return tr
	}
	items := make([]alphatree.Item, n)
	for i := range items {
		items[i] = alphatree.Item{Label: fmt.Sprintf("K%d", i+1), Key: int64(i + 1), Weight: 1 / math.Pow(float64(i+1), 0.8)}
	}
	if permuted {
		rng := stats.NewRNG(int64(n))
		rng.Shuffle(n, func(i, j int) { items[i].Weight, items[j].Weight = items[j].Weight, items[i].Weight })
	}
	tr, err := alphatree.HuTucker(items)
	if err != nil {
		b.Fatal(err)
	}
	catalogs[catalogKey{n, permuted}] = tr
	return tr
}

// catalogCases runs fn on the key-ordered and permuted Zipf(0.8)
// catalogs at 10³, 10⁴ and 10⁵ keys.
func catalogCases(b *testing.B, fn func(b *testing.B, tr *tree.Tree)) {
	for _, order := range []string{"ordered", "permuted"} {
		for _, n := range []int{1000, 10000, 100000} {
			b.Run(fmt.Sprintf("%s/n=%d", order, n), func(b *testing.B) {
				tr := zipfCatalog(b, n, order == "permuted")
				b.ReportAllocs()
				b.ResetTimer()
				fn(b, tr)
			})
		}
	}
}

// sortedK3 is the 3-channel 1_To_k allocation benchmarks polish and read.
func sortedK3(b *testing.B, tr *tree.Tree) *alloc.Allocation {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	a, err := AllocateSorted(tr, 3)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func BenchmarkAllocateSorted(b *testing.B) {
	catalogCases(b, func(b *testing.B, tr *tree.Tree) {
		for i := 0; i < b.N; i++ {
			if _, err := AllocateSorted(tr, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPolish(b *testing.B) {
	catalogCases(b, func(b *testing.B, tr *tree.Tree) {
		a := sortedK3(b, tr)
		for i := 0; i < b.N; i++ {
			if _, _, err := Polish(a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkLevels(b *testing.B) {
	catalogCases(b, func(b *testing.B, tr *tree.Tree) {
		a := sortedK3(b, tr)
		for i := 0; i < b.N; i++ {
			if got := a.Levels(); len(got) != a.NumSlots() {
				b.Fatal("lost slots")
			}
		}
	})
}
