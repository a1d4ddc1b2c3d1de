package tree

import "repro/internal/bitset"

// ReleaseBound evaluates two relaxations of the allocation problem at a
// search state and returns the larger: a lower bound on the Σ W·T the
// state's unplaced data nodes can cost. Both are admissible, so their
// maximum is too (DESIGN.md §5, "Best-first bound", has the proofs).
//
//   - Release time. Each unplaced data node waits only for its own
//     unplaced ancestors, and at most k data nodes share a slot. A node D
//     whose a(D) nearest ancestors are unplaced is released at slot
//     start + 1 + a(D): those ancestors air in distinct, strictly earlier
//     slots after the state's last one. Unit jobs with release dates on k
//     machines are scheduled optimally by taking, slot by slot, the k
//     heaviest released jobs. This relaxation dominates the packed bound
//     (every release at start + 1) and the depth bound (Σ W·release).
//   - Index capacity. Index nodes take channel capacity too: the first j
//     data nodes to air share slots start+1.. with every unplaced index
//     ancestor they have. Those ancestors span a forest whose data leaves
//     number at least j − F, where F counts the unplaced data nodes whose
//     parent is placed or absent; with fanout at most m and at most c
//     roots (the unplaced index nodes whose parent is placed or absent),
//     I ancestors hold at most (m−1)·I + min(c, I) such leaves. So the
//     j-th data node airs no earlier than start + ⌈(j + I(j))/k⌉ for the
//     least such I(j). The bounds grow with j, so pairing them with the
//     data heaviest first gives the least sum (rearrangement).
//
// A ReleaseBound holds a scratch buffer: one search owns it.
type ReleaseBound struct {
	t     *Tree
	desc  []ID    // data IDs by descending weight
	index []ID    // index IDs
	fan   int     // the tree's largest fanout
	rel   []int32 // rel[i]: desc[i]'s release offset, −1 once placed or taken
}

// NewReleaseBound returns the relaxations of t. desc lists t's data nodes
// heaviest first, as SortedDataByWeight returns them; the bound keeps it.
func NewReleaseBound(t *Tree, desc []ID) ReleaseBound {
	r := ReleaseBound{t: t, desc: desc, index: t.IndexIDs(), rel: make([]int32, len(desc))}
	for _, id := range r.index {
		r.fan = max(r.fan, int(t.firstKid[id+1]-t.firstKid[id]))
	}
	return r
}

// Cost returns the larger relaxation's optimum for the state after slot
// (or position) start on k channels. A data node is unplaced unless done
// holds it; an ancestor is unplaced unless have holds it. have must be
// ancestor-closed, so each parent walk stops at the first ancestor it
// holds. Slot start+1+s is offset s; a node waiting for a ancestors is
// released at offset a. Cost runs in O(n·(last+1) + i) for n data nodes,
// i index nodes and the latest release offset last, below the tree's
// depth, and does not allocate.
func (r *ReleaseBound) Cost(done, have bitset.Set, start, k int) float64 {
	parents, nodes, desc, rel := r.t.parents, r.t.nodes, r.desc, r.rel
	last, free := int32(0), 0
	for i, d := range desc {
		rel[i] = -1
		if done.Contains(int(d)) {
			continue
		}
		a := int32(0)
		for p := parents[d]; p != None && !have.Contains(int(p)); p = parents[p] {
			a++
		}
		if a == 0 {
			free++
		}
		rel[i], last = a, max(last, a)
	}
	capacity := r.capacity(have, start, k, free)
	var sum float64
	// Before offset last not every node is released: each slot takes the
	// k heaviest released nodes not yet taken.
	for s := int32(0); s < last; s++ {
		n := 0
		for i, a := range rel {
			if a >= 0 && a <= s {
				rel[i] = -1
				sum += nodes[desc[i]].weight * float64(start+1+int(s))
				if n++; n == k {
					break
				}
			}
		}
	}
	// From offset last on every node is released: the rest go heaviest
	// first, k per slot.
	slot, room := start+1+int(last), k
	for i, a := range rel {
		if a >= 0 {
			sum += nodes[desc[i]].weight * float64(slot)
			if room--; room == 0 {
				slot, room = slot+1, k
			}
		}
	}
	return max(sum, capacity)
}

// capacity returns the index-capacity relaxation's optimum. rel marks the
// unplaced data, heaviest first; free of them have their parent placed.
func (r *ReleaseBound) capacity(have bitset.Set, start, k, free int) float64 {
	parents, nodes := r.t.parents, r.t.nodes
	roots, open := 0, 0 // c, and every unplaced index node
	for _, id := range r.index {
		if have.Contains(int(id)) {
			continue
		}
		open++
		if p := parents[id]; p == None || have.Contains(int(p)) {
			roots++
		}
	}
	var sum float64
	// anc is the least I(j); it grows with j, and there are only open
	// index nodes to count.
	j, anc := 0, 0
	for i, a := range r.rel {
		if a < 0 {
			continue
		}
		j++
		for anc < open && (r.fan-1)*anc+min(roots, anc) < j-free {
			anc++
		}
		sum += nodes[r.desc[i]].weight * float64(start+(j+anc+k-1)/k)
	}
	return sum
}
