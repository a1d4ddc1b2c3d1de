package topo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alphatree"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

// engineCorpus returns n small seeded trees cycling through the shapes the
// searches see: the paper's Fig. 1, full m-ary trees, workload.Random
// shapes and Hu–Tucker trees over random catalogs.
func engineCorpus(t *testing.T, n int) []*tree.Tree {
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

// searchSignature renders everything a search returns that must not move:
// the allocation grid, the cost's exact bits and all seven counters.
func searchSignature(res *Result, err error) string {
	if err != nil {
		return "error: " + fmt.Sprint(errors.Is(err, ErrExpansionLimit))
	}
	return fmt.Sprintf("%v\n%s\ncost %x expanded %d generated %d %+v",
		res.Alloc.Levels(), res.Alloc, math.Float64bits(res.Cost), res.Expanded, res.Generated, res.Stats)
}

// TestEngineMatchesOracle holds the engine-driven Search to the
// pre-engine loop kept in oracle_test.go on every corpus tree, k = 1–4,
// under every pruning configuration the solvers use and both bounds:
// levels, channel grid, cost bits and every counter are equal, and at
// MaxExpanded = need and need − 1 both succeed or fail alike.
func TestEngineMatchesOracle(t *testing.T) {
	prunes := []Prune{AllPrunes(), NoPrunes(), {Property1: true, DataRank: true}}
	for i, tr := range engineCorpus(t, 1000) {
		for k := 1; k <= 4; k++ {
			for pi, p := range prunes {
				for _, tight := range []bool{false, true} {
					opt := Options{Channels: k, Prune: p, TightBound: tight}
					res, err := Search(tr, opt)
					got := searchSignature(res, err)
					if want := searchSignature(oracleSearch(tr, opt)); got != want {
						t.Fatalf("tree %d k=%d prune=%+v tight=%v:\n got %s\nwant %s", i, k, p, tight, got, want)
					}
					if err != nil || (i+k+pi)%4 != 0 {
						continue
					}
					for _, limit := range []int{res.Stats.Expanded, res.Stats.Expanded - 1} {
						opt.MaxExpanded = limit
						if limit == 0 {
							continue // 0 means no limit
						}
						got := searchSignature(Search(tr, opt))
						if want := searchSignature(oracleSearch(tr, opt)); got != want {
							t.Fatalf("tree %d k=%d prune=%+v tight=%v MaxExpanded=%d:\n got %s\nwant %s",
								i, k, p, tight, limit, got, want)
						}
					}
				}
			}
		}
	}
}

// TestWalkMatchesOracle holds EnumeratePaths and BuildTree, which drive
// the search's successor step depth-first, to the recursive walkers kept
// in oracle_test.go: the same paths in the same order with the same cost
// bits, and the same rendered tree, node count and node-limit failure.
func TestWalkMatchesOracle(t *testing.T) {
	prunes := []Prune{AllPrunes(), NoPrunes(), {Property1: true}, {Property1: true, DataRank: true}}
	for i, tr := range engineCorpus(t, 300) {
		if tr.NumNodes() > 9 {
			continue
		}
		for k := 1; k <= 3; k++ {
			for _, p := range prunes {
				opt := Options{Channels: k, Prune: p}
				got, want := pathLog(t, tr, opt, EnumeratePaths), pathLog(t, tr, opt, oracleEnumeratePaths)
				if got != want {
					t.Fatalf("tree %d k=%d prune=%+v: paths\n got %s\nwant %s", i, k, p, got, want)
				}
				for _, limit := range []int{0, 5} {
					got, want := treeLog(tr, opt, limit, BuildTree), treeLog(tr, opt, limit, oracleBuildTree)
					if got != want {
						t.Fatalf("tree %d k=%d prune=%+v maxNodes=%d: tree\n got %s\nwant %s", i, k, p, limit, got, want)
					}
				}
			}
		}
	}
}

func pathLog(t *testing.T, tr *tree.Tree, opt Options,
	enum func(*tree.Tree, Options, func([][]tree.ID, float64) bool) (uint64, error)) string {
	var b strings.Builder
	n, err := enum(tr, opt, func(levels [][]tree.ID, cost float64) bool {
		fmt.Fprintf(&b, "%s %x\n", pathString(tr, levels), math.Float64bits(cost))
		return b.Len() < 1<<16
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d paths\n%s", n, b.String())
}

func treeLog(tr *tree.Tree, opt Options, maxNodes int,
	build func(*tree.Tree, Options, int) (*Node, int, error)) string {
	root, count, err := build(tr, opt, maxNodes)
	if err != nil {
		return fmt.Sprintf("%d nodes: %v", count, err)
	}
	var b strings.Builder
	if err := Render(&b, tr, root); err != nil {
		return err.Error()
	}
	var costs func(n *Node)
	costs = func(n *Node) {
		fmt.Fprintf(&b, "%x ", math.Float64bits(n.Cost))
		for _, c := range n.Children {
			costs(c)
		}
	}
	costs(root)
	return fmt.Sprintf("%d nodes\n%s", count, b.String())
}

// TestEngineMatchesOracleOnReplanTrees repeats the comparison on the
// instances an adaptive station's replans solve exactly: Hu–Tucker trees
// over 12 keys with shuffled Zipf(1.0) weights, k = 3, Exact's prunes,
// the packed bound and a 20,000-expansion limit.
func TestEngineMatchesOracleOnReplanTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		items := make([]alphatree.Item, 12)
		for j, r := range rng.Perm(len(items)) {
			items[j] = alphatree.Item{Label: fmt.Sprint("K", j), Key: int64(j), Weight: 1 / float64(r+1)}
		}
		tr, err := alphatree.HuTucker(items)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Channels: 3, Prune: Prune{Property1: true, DataRank: true}, TightBound: true, MaxExpanded: 20000}
		got := searchSignature(Search(tr, opt))
		if want := searchSignature(oracleSearch(tr, opt)); got != want {
			t.Fatalf("tree %d:\n got %s\nwant %s", i, got, want)
		}
	}
}
