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
	"sort"

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

// Huffman builds the classic Huffman tree over the items. The resulting
// tree minimizes WeightedPathLength but does not preserve key order, so
// the result is unkeyed (a Huffman broadcast index cannot answer key
// lookups by range descent — the flaw the paper points out in [CYW97]).
func Huffman(items []Item) (*tree.Tree, error) {
	if err := validate(items, false); err != nil {
		return nil, err
	}
	type hn struct {
		w float64
		s *shape
		n int // insertion order for deterministic ties
	}
	nodes := make([]hn, len(items))
	for i, it := range items {
		nodes[i] = hn{w: it.Weight, s: &shape{leaf: i}, n: i}
	}
	next := len(items)
	for len(nodes) > 1 {
		// Select the two smallest (weight, order) nodes.
		sort.SliceStable(nodes, func(i, j int) bool {
			if nodes[i].w != nodes[j].w {
				return nodes[i].w < nodes[j].w
			}
			return nodes[i].n < nodes[j].n
		})
		a, b := nodes[0], nodes[1]
		merged := hn{
			w: a.w + b.w,
			s: &shape{leaf: -1, children: []*shape{a.s, b.s}},
			n: next,
		}
		next++
		nodes = append([]hn{merged}, nodes[2:]...)
	}
	return toTree(items, nodes[0].s, false)
}

// HuTucker builds the optimal alphabetic binary search tree with the
// Hu–Tucker algorithm [HT71]: a combination phase over compatible pairs,
// level assignment, and stack reconstruction. The combination phase costs
// O(n log n) heap work plus the lengths of the segments it rescans, O(n²)
// in the worst case. The result preserves key order, so it is keyed and
// usable as a broadcast search index.
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

	// Phase 2: leaf levels from the combination tree.
	levels := make([]int, n)
	var walk func(id int32, depth int)
	walk = func(id int32, depth int) {
		if int(id) < n {
			levels[id] = depth
			return
		}
		walk(left[int(id)-n], depth+1)
		walk(right[int(id)-n], depth+1)
	}
	walk(int32(2*n-2), 0)
	return fromLevels(items, levels)
}

// fromLevels is Hu–Tucker's phase 3: stack reconstruction of the
// alphabetic tree whose leaves sit at the given levels. It fails when no
// such tree exists, which rounding in the combination phase's float sums
// can cause on weights a few ulps apart.
func fromLevels(items []Item, levels []int) (*tree.Tree, error) {
	type se struct {
		s     *shape
		level int
	}
	var stack []se
	for i := range items {
		stack = append(stack, se{&shape{leaf: i}, levels[i]})
		for len(stack) >= 2 && stack[len(stack)-1].level == stack[len(stack)-2].level {
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, se{
				s:     &shape{leaf: -1, children: []*shape{a.s, b.s}},
				level: a.level - 1,
			})
		}
	}
	if len(stack) != 1 || stack[0].level != 0 {
		return nil, fmt.Errorf("alphatree: Hu-Tucker reconstruction failed (stack %d, level %d)",
			len(stack), stack[0].level)
	}
	return toTree(items, stack[0].s, true)
}

// pairCand is the best compatible pair of the segment that starts at
// slot start, cached until a merge bumps version[start].
type pairCand struct {
	sum     float64
	i, j    int32 // slots, i before j
	start   int32
	version uint32
}

// combine runs Hu–Tucker's combination phase on n ≥ 2 items and returns
// the combination tree: merge k joins nodes left[k] and right[k] into
// node n+k, where node ids below n are the items. Each step merges the
// compatible pair (no external node strictly between them) with the
// smallest (fl(w[i]+w[j]), i, j), positions in sequence order.
//
// The working sequence lives in flat slices indexed by slot: slot s holds
// the node item s started as, and a merge keeps its left slot and unlinks
// its right one, so slot order is sequence order and slot 0 is always the
// head. The sequence splits into segments: slot 0 or an external node,
// the internal nodes after it, and the next external node. Every
// compatible pair lies in exactly one segment, so the global best pair is
// the least of the segments' best pairs, which a heap caches. A merge
// changes only the segment holding its pair, joined to its neighbour
// across each external endpoint it consumes, and only that segment is
// rescanned.
func combine(items []Item) (left, right []int32) {
	n := len(items)
	w := make([]float64, n)
	ext := make([]bool, n)
	prev := make([]int32, n)
	next := make([]int32, n)
	node := make([]int32, n)
	version := make([]uint32, n)
	for s, it := range items {
		w[s], ext[s], node[s] = it.Weight, true, int32(s)
		prev[s], next[s] = int32(s-1), int32(s+1)
	}
	next[n-1] = -1
	left, right = make([]int32, n-1), make([]int32, n-1)
	segW := make([]float64, 0, n)
	segS := make([]int32, 0, n)

	// best scans the segment starting at slot start. fl(a+b) is monotone
	// in a and b, so the least sum pairing node a with a later node is
	// fl(w[a] + the minimum weight after a): a backward walk with that
	// suffix minimum finds the least sum and the first i reaching it, and
	// j is the first node after i reaching it with i. This is the
	// smallest (fl-sum, i, j), float rounding ties included.
	best := func(start int32) (pairCand, bool) {
		segW, segS = segW[:0], segS[:0]
		for s := start; s >= 0; s = next[s] {
			segW = append(segW, w[s])
			segS = append(segS, s)
			if ext[s] && s != start {
				break
			}
		}
		if len(segW) < 2 {
			return pairCand{}, false
		}
		sum, bi := math.Inf(1), 0
		sufMin := segW[len(segW)-1]
		for a := len(segW) - 2; a >= 0; a-- {
			if s := segW[a] + sufMin; s <= sum {
				sum, bi = s, a
			}
			if segW[a] < sufMin {
				sufMin = segW[a]
			}
		}
		bj := bi + 1
		for segW[bi]+segW[bj] != sum {
			bj++
		}
		return pairCand{sum: sum, i: segS[bi], j: segS[bj], start: start, version: version[start]}, true
	}

	q := pqueue.New(func(a, b pairCand) bool {
		if a.sum != b.sum {
			return a.sum < b.sum
		}
		if a.i != b.i {
			return a.i < b.i
		}
		return a.j < b.j
	})
	q.Reserve(2 * n)
	for s := int32(0); s < int32(n-1); s++ {
		c, _ := best(s)
		q.Push(c)
	}
	for k := 0; k < n-1; k++ {
		c := q.Pop()
		for c.version != version[c.start] {
			c = q.Pop()
		}
		i, j := c.i, c.j
		left[k], right[k] = node[i], node[j]
		node[i] = int32(n + k)
		w[i] += w[j]
		ext[i] = false
		next[prev[j]] = next[j]
		if next[j] >= 0 {
			prev[next[j]] = prev[j]
		}
		// A consumed external i joins the segment ending at i; a consumed
		// external j joins the segment starting at j, whose cached pair
		// dies with version[j].
		start := c.start
		if start == i && i != 0 {
			for start = prev[i]; start != 0 && !ext[start]; start = prev[start] {
			}
		}
		version[start]++
		version[j]++
		if c, ok := best(start); ok {
			q.Push(c)
		}
	}
	return left, right
}

// OptimalAlphabetic builds the optimal alphabetic binary tree by the
// O(n³) interval dynamic program (the oracle HuTucker is tested against).
func OptimalAlphabetic(items []Item) (*tree.Tree, error) {
	return OptimalKAry(items, 2)
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
