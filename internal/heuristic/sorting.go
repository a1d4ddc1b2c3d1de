// Package heuristic implements Section 4.2 of the paper: the two
// heuristics for large broadcast programs.
//
// Index Tree Sorting orders every node's children by the paper's ">"
// relation (A > B iff N_B·ΣW(A) ≥ N_A·ΣW(B), where N and ΣW are the
// subtree node count and data weight), broadcasts the sorted tree in
// preorder on one channel, and maps the preorder sequence onto k channels
// with the linear-time 1_To_k_BroadcastChannel procedure.
//
// Index Tree Shrinking reduces the tree until an optimal search is
// affordable — Node Combination folds index nodes whose children are all
// leaves into pseudo data nodes of summed weight; Tree Partitioning solves
// subtrees optimally and merges the sub-broadcasts in sorted order — and
// then restores the combined nodes in the optimal path.
//
// Cost of the sorting path on a tree of N nodes with fanout m, k channels:
//
//   - the ">" keys and the sorted preorder: O(N log m), one post-order
//     pass and then each node's children sorted on one explicit stack;
//   - 1_To_k: O(N·α(N)), one walk per slot over a path-halving
//     "next unplaced" table (see AllocateSorted);
//   - Polish: O(N) to set up, then per pass O(k²·m) for each slot pair a
//     move changed plus a word scan of the dirty-pair sets; passes repeat
//     until nothing moves, and a heavy compound rises one slot per pass;
//   - alloc.FromLevels and Allocation.Levels: O(N + slots·k).
//
// On Hu–Tucker Zipf(0.8) catalogs at k = 3 (BenchmarkAllocateSorted and
// BenchmarkPolish, medians of five runs on a 2-CPU AMD EPYC), each 10×
// step in keys from 10³ to 10⁵ costs AllocateSorted 9–12× and Polish
// 9–15× more time.
package heuristic

import (
	"fmt"
	"slices"

	"repro/internal/alloc"
	"repro/internal/tree"
)

// rank returns the sort key of the ">" relation: subtrees are ordered by
// descending ΣW/N, which is equivalent to the paper's pairwise condition
// N_B·ΣW(A) ≥ N_A·ΣW(B) for positive subtree sizes.
func rank(t *tree.Tree, id tree.ID) float64 {
	return t.SubtreeWeight(id) / float64(t.SubtreeSize(id))
}

// ranks precomputes every node's ">" key in one post-order pass, keeping
// the sorting heuristics O(N log m) as the paper claims rather than
// recomputing subtree aggregates per comparison.
func ranks(t *tree.Tree) []float64 {
	weight := make([]float64, t.NumNodes())
	size := make([]int32, t.NumNodes())
	pre := t.Preorder()
	for i := len(pre) - 1; i >= 0; i-- {
		id := pre[i]
		w, n := 0.0, int32(1)
		if t.IsData(id) {
			w = t.Weight(id)
		}
		for _, c := range t.Children(id) {
			w += weight[c]
			n += size[c]
		}
		weight[id] = w
		size[id] = n
	}
	for i := range weight {
		weight[i] /= float64(size[i])
	}
	return weight
}

// SortedPreorder returns t's node IDs in the preorder of the sorted tree:
// children are visited in descending ">" order without materializing a
// copy, so the result indexes the input tree directly.
func SortedPreorder(t *tree.Tree) []tree.ID {
	order, _ := sortedPreorder(t)
	return order
}

// sortedPreorder returns the sorted preorder and, for each position i in
// it, the position of order[i]'s parent (-1 for the root). It walks one
// explicit stack, sorting each node's children in place on it.
func sortedPreorder(t *tree.Tree) (order []tree.ID, parent []int32) {
	key := ranks(t)
	type entry struct {
		id     tree.ID
		parent int32
	}
	// Same order as sort.SliceStable with less = key[a] > key[b]: both
	// run the same stable algorithm, which only asks "less".
	byRank := func(a, b entry) int {
		if key[a.id] > key[b.id] {
			return -1
		}
		return 0
	}
	order = make([]tree.ID, 0, t.NumNodes())
	parent = make([]int32, 0, t.NumNodes())
	stack := []entry{{t.Root(), -1}}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seq := int32(len(order))
		order = append(order, e.id)
		parent = append(parent, e.parent)
		start := len(stack)
		for _, c := range t.Children(e.id) {
			stack = append(stack, entry{c, seq})
		}
		slices.SortStableFunc(stack[start:], byRank)
		slices.Reverse(stack[start:])
	}
	return order, parent
}

// SortingBroadcast runs the Index Tree Sorting heuristic for a single
// channel: the broadcast is the sorted preorder of t. The allocation is
// over the input tree.
func SortingBroadcast(t *tree.Tree) (*alloc.Allocation, error) {
	return alloc.FromSequence(t, SortedPreorder(t))
}

// AllocateSorted runs Index Tree Sorting followed by the paper's
// 1_To_k_BroadcastChannel procedure to spread the sorted tree over k
// channels: the nodes of each tree level share one slot (channels 1..k in
// preorder-sequence order), with overflow merged into the next level's
// list by sequence number, and the final list dumped k per slot.
//
// The paper's pseudocode does not address the corner where a merged
// parent and its child would land in the same slot; we defer such a child
// to the next slot, preserving feasibility without changing conflict-free
// inputs.
//
// The level lists and the DumpList collapse into one rule. The list the
// procedure scans for slot s holds every unplaced node of level <= s
// (every unplaced node once the levels run out) in sequence order, and a
// node can take slot s only if its parent sits in an earlier slot, which
// already bounds its level by s. So slot s takes the first k unplaced
// nodes in sorted preorder whose parent is placed before s. One walk per
// slot finds them: it visits unplaced sequence numbers in order, takes
// each node whose parent is in an earlier slot, and jumps over the whole
// subtree of a node whose parent is in this very slot (no descendant of
// it can be placed yet). A walk visits at most k taken nodes plus the
// children of those it took, and a path-halving "next unplaced" table
// makes each jump near-constant, so the procedure is O(N·α(N)) after the
// O(N log m) sort.
func AllocateSorted(t *tree.Tree, k int) (*alloc.Allocation, error) {
	if k < 1 {
		return nil, fmt.Errorf("heuristic: %d channels", k)
	}
	// The walk runs on sequence numbers: parent[i] is the sequence number
	// of order[i]'s parent, and size[i] its subtree size, so its subtree is
	// the range [i, i+size[i]).
	order, parent := sortedPreorder(t)
	n := len(order)
	size := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		size[i]++
		if i > 0 {
			size[parent[i]] += size[i]
		}
	}
	// next[i] leads to the first unplaced sequence number >= i; next[n]
	// is the end sentinel.
	next := make([]int32, n+1)
	for i := range next {
		next[i] = int32(i)
	}
	find := func(i int32) int32 {
		for next[i] != i {
			next[i] = next[next[i]]
			i = next[i]
		}
		return i
	}
	slotOf := make([]int32, n) // by sequence number; 0 = unplaced
	placed := make([]tree.ID, 0, n)
	bounds := []int32{0} // slot s holds placed[bounds[s-1]:bounds[s]]

	// Slot 1: the root alone (statement 4 of the procedure).
	placed = append(placed, order[0])
	slotOf[0] = 1
	next[0] = 1
	bounds = append(bounds, 1)

	for len(placed) < n {
		s := int32(len(bounds))
		start := len(placed)
		for i := find(0); int(i) < n && len(placed)-start < k; {
			if slotOf[parent[i]] == s {
				i = find(i + size[i])
				continue
			}
			placed = append(placed, order[i])
			slotOf[i] = s
			next[i] = i + 1
			i = find(i + 1)
		}
		if len(placed) == start {
			return nil, fmt.Errorf("heuristic: 1_To_k could not place %d nodes", n-start)
		}
		bounds = append(bounds, int32(len(placed)))
	}
	levels := make([][]tree.ID, len(bounds)-1)
	for s := range levels {
		levels[s] = placed[bounds[s]:bounds[s+1]:bounds[s+1]]
	}
	return alloc.FromLevels(t, k, levels)
}
