package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/tree"
)

// LowerBound returns a provable lower bound on the optimal average data
// wait of t over k channels, computable in O(n·depth) for instances far
// beyond exact-search reach. It is the exact search's bound U(X)
// (tree.ReleaseBound) at the state after slot 1, where only the root is
// placed, and so the larger of two relaxations:
//
//   - release time: every data node D must follow all Level(D)−1 of its
//     ancestors in strictly increasing slots, so it is released at slot
//     Level(D), and each slot carries at most k data nodes;
//   - index capacity: each slot after the root's carries at most k
//     buckets, and the first j data nodes to air share those slots with
//     the index ancestors they need.
//
// Both drop constraints of the real problem, so each bound — and hence
// their maximum — never exceeds the true optimum. They contain the two
// older relaxations: Σ W·Level(D) (the depth bound) is what the release
// times alone give, and the j-th data node at slot ≥ 1 + ⌈j/k⌉ (the
// capacity bound) is the index-capacity term without the index nodes.
// With k at least the tree's maximum level width, the release-time bound
// is tight (Corollary 1's allocation achieves it).
func LowerBound(t *tree.Tree, k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("core: %d channels", k)
	}
	total := t.TotalWeight()
	if total == 0 {
		return 0, nil
	}
	root := t.Root()
	if t.IsData(root) { // a single data node, at slot 1
		return 1, nil
	}
	placed := bitset.New(t.NumNodes())
	placed.Add(int(root))
	r := tree.NewReleaseBound(t, t.SortedDataByWeight())
	return r.Cost(placed, placed, 1, k) / total, nil
}
