// Package alphatree constructs the index trees the paper builds on: the
// alphabetic (order-preserving) search trees of Hu & Tucker [HT71], their
// k-nary generalization used by [SV96] so a tree node fits a wireless
// packet of any size, and plain Huffman trees — the [CYW97/SV96] baseline
// that minimizes tuning time but, as the paper notes, cannot serve as a
// search tree because it does not preserve key order.
//
// In all constructions the leaves are the data items in the given order
// and internal nodes are index nodes; the quality measure is the weighted
// path length Σ W(item)·depth(item), which is proportional to the average
// tuning time of a key lookup on the broadcast.
package alphatree

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/pqueue"
	"repro/internal/tree"
)

// Item is one keyed, weighted catalog entry. Keys must be strictly
// ascending for the alphabetic constructions.
type Item struct {
	Label  string
	Key    int64
	Weight float64
}

func validate(items []Item, needKeys bool) error {
	if len(items) == 0 {
		return fmt.Errorf("alphatree: no items")
	}
	var total float64
	for i, it := range items {
		if it.Weight < 0 || math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) {
			return fmt.Errorf("alphatree: item %d has invalid weight %v", i, it.Weight)
		}
		if needKeys && i > 0 && items[i-1].Key >= it.Key {
			return fmt.Errorf("alphatree: keys not strictly ascending at item %d", i)
		}
		total += it.Weight
	}
	if math.IsInf(total, 1) {
		return fmt.Errorf("alphatree: total weight overflows float64")
	}
	return nil
}

// shape is a construction-time tree: leaf >= 0 is an item index,
// otherwise children holds the subtrees left to right.
type shape struct {
	leaf     int
	children []*shape
}

// toTree converts a shape into a tree.Tree, keying data nodes when keyed.
func toTree(items []Item, root *shape, keyed bool) (*tree.Tree, error) {
	b := tree.NewBuilder()
	nextIndex := 1
	var build func(parent tree.ID, s *shape)
	build = func(parent tree.ID, s *shape) {
		if s.leaf >= 0 {
			it := items[s.leaf]
			switch {
			case parent == tree.None && keyed:
				b.AddRootKeyedData(it.Label, it.Key, it.Weight)
			case parent == tree.None:
				b.AddRootData(it.Label, it.Weight)
			case keyed:
				b.AddKeyedData(parent, it.Label, it.Key, it.Weight)
			default:
				b.AddData(parent, it.Label, it.Weight)
			}
			return
		}
		var id tree.ID
		if parent == tree.None {
			id = b.AddRoot(fmt.Sprintf("I%d", nextIndex))
		} else {
			id = b.AddIndex(parent, fmt.Sprintf("I%d", nextIndex))
		}
		nextIndex++
		for _, c := range s.children {
			build(id, c)
		}
	}
	build(tree.None, root)
	return b.Build()
}

// WeightedPathLength returns Σ W(d)·(Level(d)−1): the weighted number of
// index probes needed to reach each data node from the root. Divided by
// the total weight it is the average tuning-time proxy.
func WeightedPathLength(t *tree.Tree) float64 {
	var sum float64
	for _, d := range t.DataIDs() {
		sum += t.Weight(d) * float64(t.Level(d)-1)
	}
	return sum
}

// Huffman builds the classic Huffman tree over the items in O(n log n)
// time. The resulting tree minimizes WeightedPathLength but does not
// preserve key order, so the result is unkeyed (a Huffman broadcast index
// cannot answer key lookups by range descent — the flaw the paper points
// out in [CYW97]).
func Huffman(items []Item) (*tree.Tree, error) {
	if err := validate(items, false); err != nil {
		return nil, err
	}
	// Merge the two least (weight, insertion order) nodes until one is
	// left; merged nodes take the next insertion numbers.
	type hn struct {
		w float64
		s *shape
		n int
	}
	q := pqueue.New(func(a, b hn) bool {
		if a.w != b.w {
			return a.w < b.w
		}
		return a.n < b.n
	})
	q.Reserve(len(items))
	for i, it := range items {
		q.Push(hn{w: it.Weight, s: &shape{leaf: i}, n: i})
	}
	for next := len(items); q.Len() > 1; next++ {
		a, b := q.Pop(), q.Pop()
		q.Push(hn{w: a.w + b.w, s: &shape{leaf: -1, children: []*shape{a.s, b.s}}, n: next})
	}
	return toTree(items, q.Pop().s, false)
}

// HuTucker builds the optimal alphabetic binary search tree with the
// Hu–Tucker algorithm [HT71]: a combination phase over compatible pairs,
// level assignment, and stack reconstruction, in O(n log n) time. The
// result preserves key order, so it is keyed and usable as a broadcast
// search index.
func HuTucker(items []Item) (*tree.Tree, error) {
	if err := validate(items, true); err != nil {
		return nil, err
	}
	n := len(items)
	if n == 1 {
		return toTree(items, &shape{leaf: 0}, true)
	}

	// Phase 1: combination.
	left, right := combine(items)

	// Phase 2: leaf levels from the combination tree. Node n+k is merge
	// k's result and the last merge is the root; a merge sits one level
	// above the two nodes it joins.
	depth := make([]int32, 2*n-1)
	for k := n - 2; k >= 0; k-- {
		depth[left[k]] = depth[n+k] + 1
		depth[right[k]] = depth[n+k] + 1
	}
	levels := depth[:n]

	// Phase 3: reconstruction.
	if err := checkLevels(levels); err != nil {
		return nil, err
	}
	return emitLevels(items, levels)
}

// checkLevels runs phase 3's stack rule on the levels alone: push each
// leaf's level, and while the top two entries are equal replace them by
// one entry a level up. The levels belong to an alphabetic binary tree
// exactly when this ends with the root alone, at level 0. Rounding in the
// combination phase's float sums can break that on weights a few ulps
// apart.
func checkLevels(levels []int32) error {
	var stack []int32
	for _, l := range levels {
		stack = append(stack, l)
		for len(stack) >= 2 && stack[len(stack)-1] == stack[len(stack)-2] {
			stack = stack[:len(stack)-1]
			stack[len(stack)-1]--
		}
	}
	if len(stack) != 1 || stack[0] != 0 {
		return fmt.Errorf("alphatree: Hu-Tucker reconstruction failed (stack %d, level %d)",
			len(stack), stack[0])
	}
	return nil
}

// emitLevels builds the alphabetic binary tree whose leaves sit at the
// given levels, which checkLevels accepted. That tree is unique, so it
// goes straight into the builder in preorder: each leaf hangs from the
// deepest index node still missing a child, under fresh index nodes down
// to its level. IDs and the I1, I2, … labels come out in preorder, as
// toTree assigns them.
func emitLevels(items []Item, levels []int32) (*tree.Tree, error) {
	labels := indexLabels(len(items) - 1)
	b := tree.NewBuilder()
	b.Grow(2*len(items) - 1)
	// path[d] is the open index node at depth d, kids[d] its child count.
	path := make([]tree.ID, 0, 32)
	kids := make([]uint8, 0, 32)
	add := func(id tree.ID) {
		path, kids = append(path, id), append(kids, 0)
	}
	add(b.AddRoot(labels[0]))
	next := 1
	for i, it := range items {
		for int32(len(path)) < levels[i] {
			kids[len(kids)-1]++
			add(b.AddIndex(path[len(path)-1], labels[next]))
			next++
		}
		kids[len(kids)-1]++
		b.AddKeyedData(path[len(path)-1], it.Label, it.Key, it.Weight)
		for len(kids) > 0 && kids[len(kids)-1] == 2 {
			path, kids = path[:len(path)-1], kids[:len(kids)-1]
		}
	}
	return b.Build()
}

// indexLabels returns the index-node labels I1 … In, cut from one string.
func indexLabels(n int) []string {
	buf := make([]byte, 0, n*(len(strconv.Itoa(n))+2))
	for k := 1; k <= n; k++ {
		if k > 1 {
			buf = append(buf, ',')
		}
		buf = append(buf, 'I')
		buf = strconv.AppendInt(buf, int64(k), 10)
	}
	return strings.Split(string(buf), ",")
}

// OptimalKAry builds the optimal alphabetic tree with node fanout at most
// k by dynamic programming over item intervals: an interval either is a
// single leaf or splits into 2..k consecutive sub-intervals, paying the
// interval's total weight once per level. O(n³·k) time.
func OptimalKAry(items []Item, k int) (*tree.Tree, error) {
	if k < 2 {
		return nil, fmt.Errorf("alphatree: fanout %d, want >= 2", k)
	}
	if err := validate(items, true); err != nil {
		return nil, err
	}
	n := len(items)
	prefix := make([]float64, n+1)
	for i, it := range items {
		prefix[i+1] = prefix[i] + it.Weight
	}
	w := func(i, j int) float64 { return prefix[j+1] - prefix[i] }

	// cost[i][j]: optimal subtree cost for items i..j (leaf depths count
	// from this subtree's root). split[i][j]: last cut position of the
	// best partition, via parts[i][j][m] bookkeeping folded into a
	// two-level DP: best m-part partition cost over intervals.
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	// partCost[m][i][j]: cheapest way to cover i..j with exactly m
	// already-built subtrees standing side by side.
	partCost := make([][][]float64, k+1)
	partCut := make([][][]int, k+1)
	for m := 1; m <= k; m++ {
		partCost[m] = make([][]float64, n)
		partCut[m] = make([][]int, n)
		for i := range partCost[m] {
			partCost[m][i] = make([]float64, n)
			partCut[m][i] = make([]int, n)
			for j := range partCost[m][i] {
				partCost[m][i][j] = math.Inf(1)
				partCut[m][i][j] = -1
			}
		}
	}
	bestParts := make([][]int, n)
	for i := range bestParts {
		bestParts[i] = make([]int, n)
	}

	for length := 1; length <= n; length++ {
		for i := 0; i+length-1 < n; i++ {
			j := i + length - 1
			if i == j {
				cost[i][j] = 0
				partCost[1][i][j] = 0
				continue
			}
			// partCost[1] over strictly smaller intervals is final since
			// cost for them was computed in earlier lengths.
			best := math.Inf(1)
			bm := -1
			for m := 2; m <= k && m <= length; m++ {
				for cut := i + m - 2; cut < j; cut++ {
					left := partCost[m-1][i][cut]
					right := cost[cut+1][j] // single subtree on the right
					if c := left + right; c < partCost[m][i][j] {
						partCost[m][i][j] = c
						partCut[m][i][j] = cut
					}
				}
				if c := partCost[m][i][j]; c < best {
					best = c
					bm = m
				}
			}
			cost[i][j] = best + w(i, j)
			bestParts[i][j] = bm
			partCost[1][i][j] = cost[i][j]
		}
	}
	// A finite total can still overflow once multiplied by depths; an
	// infinite optimum leaves no split recorded to rebuild from.
	if math.IsInf(cost[0][n-1], 1) {
		return nil, fmt.Errorf("alphatree: weighted path length overflows float64")
	}

	var build func(i, j int) *shape
	var parts func(i, j, m int) []*shape
	parts = func(i, j, m int) []*shape {
		if m == 1 {
			return []*shape{build(i, j)}
		}
		cut := partCut[m][i][j]
		return append(parts(i, cut, m-1), build(cut+1, j))
	}
	build = func(i, j int) *shape {
		if i == j {
			return &shape{leaf: i}
		}
		return &shape{leaf: -1, children: parts(i, j, bestParts[i][j])}
	}
	return toTree(items, build(0, n-1), true)
}

// KAry builds a weight-balanced alphabetic k-ary tree greedily: every
// node splits its item range into up to k contiguous groups of roughly
// equal total weight. A fast O(n log n)-ish heuristic counterpart to
// OptimalKAry for large catalogs, as used to fit index nodes to packets.
func KAry(items []Item, k int) (*tree.Tree, error) {
	if k < 2 {
		return nil, fmt.Errorf("alphatree: fanout %d, want >= 2", k)
	}
	if err := validate(items, true); err != nil {
		return nil, err
	}
	prefix := make([]float64, len(items)+1)
	for i, it := range items {
		prefix[i+1] = prefix[i] + it.Weight
	}
	var build func(i, j int) *shape
	build = func(i, j int) *shape {
		if i == j {
			return &shape{leaf: i}
		}
		count := j - i + 1
		groups := k
		if groups > count {
			groups = count
		}
		s := &shape{leaf: -1}
		start := i
		for g := 0; g < groups; g++ {
			remainingGroups := groups - g
			if remainingGroups == 1 {
				s.children = append(s.children, build(start, j))
				break
			}
			target := prefix[start] + (prefix[j+1]-prefix[start])/float64(remainingGroups)
			// Advance end to the split closest to the target weight while
			// leaving at least one item per remaining group.
			end := start
			for end < j-(remainingGroups-1) && prefix[end+1] < target {
				end++
			}
			s.children = append(s.children, build(start, end))
			start = end + 1
		}
		return s
	}
	return toTree(items, build(0, len(items)-1), true)
}
