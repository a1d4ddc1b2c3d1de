package tree

import "repro/internal/bitset"

// ReleaseBound evaluates the release-time relaxation of the allocation
// problem at a search state: the least Σ W·T the state's unplaced data
// nodes can cost when each one waits only for its own unplaced ancestors
// and at most k data nodes share a slot. Index nodes take no capacity in
// the relaxation. An unplaced data node D whose a(D) nearest ancestors
// are unplaced is released at slot start + 1 + a(D): those ancestors air
// in distinct, strictly earlier slots after the state's last one.
//
// Unit jobs with release dates on k machines are scheduled optimally by
// taking, slot by slot, the k heaviest released jobs (DESIGN.md §5,
// "Best-first bound", has the proof). Any real completion of the state
// is a schedule of the relaxation, so Cost is an admissible U(X), and it
// dominates both the packed bound (every release at start + 1) and the
// depth bound (Σ W·release).
//
// A ReleaseBound holds a scratch buffer: one search owns it.
type ReleaseBound struct {
	t    *Tree
	desc []ID    // data IDs by descending weight
	rel  []int32 // rel[i]: desc[i]'s release offset, −1 once placed or taken
}

// NewReleaseBound returns the relaxation of t. desc lists t's data nodes
// heaviest first, as SortedDataByWeight returns them; the relaxation
// keeps it.
func NewReleaseBound(t *Tree, desc []ID) ReleaseBound {
	return ReleaseBound{t: t, desc: desc, rel: make([]int32, len(desc))}
}

// Cost returns the relaxation's optimum for the state after slot (or
// position) start on k channels. A data node is unplaced unless done
// holds it; an ancestor is unplaced unless have holds it. have must be
// ancestor-closed, so each parent walk stops at the first ancestor it
// holds. Slot start+1+s is offset s; a node waiting for a ancestors is
// released at offset a. Cost runs in O(n·(last+1)) for n data nodes and
// the latest release offset last, below the tree's depth, and does not
// allocate.
func (r *ReleaseBound) Cost(done, have bitset.Set, start, k int) float64 {
	parents, nodes, desc, rel := r.t.parents, r.t.nodes, r.desc, r.rel
	last := int32(0)
	for i, d := range desc {
		rel[i] = -1
		if done.Contains(int(d)) {
			continue
		}
		a := int32(0)
		for p := parents[d]; p != None && !have.Contains(int(p)); p = parents[p] {
			a++
		}
		rel[i], last = a, max(last, a)
	}
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
	return sum
}
