// Package topo implements the paper's core contribution: the k-channel
// topological tree (Algorithm 1) representing every feasible index-and-data
// allocation, the best-first search over it with evaluation function
// E(X) = V(X) + U(X), and the pruning rules of Section 3.2 (Lemmas 1–5,
// Properties 1–3, and the Appendix algorithm).
//
// Two solvers are provided:
//
//   - Exact: an A* search over (placed-set, depth) states using only
//     provably-safe reductions (maximal slot filling, Property 1, the
//     heaviest-available data rank rule). It is the ground truth.
//   - Search: the paper's pruned best-first search, with each pruning rule
//     individually switchable for the ablation experiments.
//
// Both return the optimal allocation; Search additionally reports how many
// topological-tree nodes it generated and expanded.
package topo

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/bestfirst"
	"repro/internal/bitset"
	"repro/internal/searchstats"
	"repro/internal/tree"
)

// Prune selects which of the paper's pruning rules are active.
type Prune struct {
	// Property1: once every index node is allocated, complete the path by
	// emitting the remaining data nodes in descending weight order, k per
	// slot, as a single forced continuation.
	Property1 bool
	// Property2 restricts next-neighbors in the 1-channel tree (Appendix
	// Step 2, k = 1): after an index node x only children of x follow
	// (data: only x's heaviest data child); after a data node x no data
	// node heavier than x follows.
	Property2 bool
	// Property3 restricts next-neighbors in the k-channel tree (Appendix
	// Steps 2–4, k > 1): data nodes in a successor must be children of the
	// previous compound when it is all-index (and at least one child must
	// appear); data heavier than some data in a mixed previous compound
	// must be its child; local-swap eliminations between the previous
	// compound and the successor.
	Property3 bool
	// DataRank is Appendix Step 3 rule (i): the data nodes chosen into a
	// compound must be the heaviest among the eligible data candidates.
	DataRank bool
}

// AllPrunes enables every rule (the paper's full algorithm).
func AllPrunes() Prune {
	return Prune{Property1: true, Property2: true, Property3: true, DataRank: true}
}

// NoPrunes disables everything, yielding the raw Algorithm 1 tree.
func NoPrunes() Prune { return Prune{} }

// Options configures a topological-tree search or enumeration.
type Options struct {
	// Channels is the number of broadcast channels k (>= 1).
	Channels int
	// Prune selects the active pruning rules.
	Prune Prune
	// TightBound uses tree.ReleaseBound instead of the paper's U(X),
	// which puts all remaining data at the very next slot. It is the
	// larger of two relaxations: release time (an unplaced data node is
	// released one slot later per unplaced ancestor, and the heaviest
	// released nodes take the slots first, k per slot) and index
	// capacity (the unplaced index ancestors of the data aired so far
	// take places in the same slots). Both bounds are admissible; the
	// tighter one dominates the paper's, so the search finds the same
	// optimum cost with fewer expansions.
	TightBound bool
	// MaxExpanded aborts the search after this many expansions (0 = no
	// limit), returning an error. A safety valve for huge instances.
	MaxExpanded int
}

// Result is the outcome of a search.
type Result struct {
	// Alloc is an optimal allocation.
	Alloc *alloc.Allocation
	// Cost is Alloc's average data wait in buckets (Formula 1).
	Cost float64
	// Expanded counts topological-tree nodes whose successors were
	// generated; Generated counts successor nodes created. Both are
	// ablation metrics for the pruning experiments and mirror the
	// corresponding Stats fields.
	Expanded, Generated int
	// Stats holds the full per-search performance counters.
	Stats searchstats.Stats
}

// gen holds per-search immutable context plus the scratch buffers the
// successor step reuses. The buffers make gen single-goroutine; every
// search builds its own gen, so concurrent searches over the same tree
// stay safe.
type gen struct {
	t     *tree.Tree
	k     int
	p     Prune
	tight bool
	n     int
	all   bitset.Set // every node ID

	indexSet bitset.Set        // all index node IDs
	dataDesc []tree.ID         // data IDs sorted by descending weight
	rel      tree.ReleaseBound // U(X) under TightBound

	stats *searchstats.Stats // counters of the running search (nil outside Search)

	// frames[i] backs the candidate buffers of the eachSuccessor call at
	// nesting level i. A search never nests; a walk generates a child's
	// successors from inside its parent's generation, one level deeper.
	// newGen leaves room for a few levels so shallow walks never regrow it.
	frames [][]tree.ID
	level  int
}

func newGen(t *tree.Tree, opt Options) (*gen, error) {
	if opt.Channels < 1 {
		return nil, fmt.Errorf("topo: %d channels", opt.Channels)
	}
	g := &gen{t: t, k: opt.Channels, p: opt.Prune, tight: opt.TightBound, n: t.NumNodes(),
		frames: make([][]tree.ID, 0, 4)}
	g.all = bitset.New(g.n)
	g.indexSet = bitset.New(g.n)
	for i := 0; i < g.n; i++ {
		g.all.Add(i)
		if t.IsIndex(tree.ID(i)) {
			g.indexSet.Add(i)
		}
	}
	g.dataDesc = t.SortedDataByWeight()
	if g.tight {
		g.rel = tree.NewReleaseBound(t, g.dataDesc)
	}
	return g, nil
}

// available appends to dst the unplaced nodes whose parent is placed (the
// set S of Algorithm 1), in ascending ID order.
func (g *gen) available(dst []tree.ID, placed bitset.Set) []tree.ID {
	out := dst
	for i := 0; i < g.n; i++ {
		id := tree.ID(i)
		if placed.Contains(i) {
			continue
		}
		p := g.t.Parent(id)
		if p == tree.None || placed.Contains(int(p)) {
			out = append(out, id)
		}
	}
	return out
}

// allIndexPlaced reports whether every index node is in placed.
func (g *gen) allIndexPlaced(placed bitset.Set) bool {
	return g.indexSet.SubsetOf(placed)
}

// tail returns the slots of the forced completion s: its parent's
// unplaced data nodes in descending weight, packed k per slot.
func (g *gen) tail(s *state) [][]tree.ID {
	placed := s.parent.placed
	n := 0
	for _, d := range g.dataDesc {
		if !placed.Contains(int(d)) {
			n++
		}
	}
	ids := make([]tree.ID, 0, n)
	for _, d := range g.dataDesc {
		if !placed.Contains(int(d)) {
			ids = append(ids, d)
		}
	}
	levels := make([][]tree.ID, 0, (n+g.k-1)/g.k)
	for len(ids) > 0 {
		m := min(g.k, len(ids))
		levels = append(levels, ids[:m:m])
		ids = ids[m:]
	}
	return levels
}

// bound returns U(X), an admissible lower bound on the remaining weighted
// wait from a state at the given depth: tree.ReleaseBound's release-time
// and index-capacity relaxations under TightBound, else the paper's U(X),
// every remaining data node in the very next slot. It runs once per generated state and does not allocate.
func (g *gen) bound(placed bitset.Set, depth int) float64 {
	if g.tight {
		return g.rel.Cost(placed, placed, depth, g.k)
	}
	var w float64
	for _, id := range g.dataDesc {
		if !placed.Contains(int(id)) {
			w += g.t.Weight(id)
		}
	}
	return w * float64(depth+1)
}

// completionCostRemaining returns the number of unplaced data nodes and the
// Formula-1 cost of packing them, heaviest first, k per slot starting at
// slot depth+1 — the Property 1 forced completion, computed without
// materializing the remaining set.
func (g *gen) completionCostRemaining(placed bitset.Set, depth int) (int, float64) {
	n := 0
	var sum float64
	for _, id := range g.dataDesc {
		if placed.Contains(int(id)) {
			continue
		}
		sum += g.t.Weight(id) * float64(depth+1+n/g.k)
		n++
	}
	return n, sum
}

// compoundCost is the weighted-wait contribution of placing the compound at
// the given slot.
func (g *gen) compoundCost(compound []tree.ID, slot int) float64 {
	var sum float64
	for _, id := range compound {
		if g.t.IsData(id) {
			sum += g.t.Weight(id) * float64(slot)
		}
	}
	return sum
}

// filterS applies the Appendix Step 2 candidate filters given the previous
// compound prev (nil for the root step), appending the survivors to dst.
func (g *gen) filterS(dst, s []tree.ID, prev []tree.ID) []tree.ID {
	if len(prev) == 0 {
		return s
	}
	prevAllIndex := true
	minPrevDataW := 0.0
	hasPrevData := false
	for _, id := range prev {
		if g.t.IsData(id) {
			prevAllIndex = false
			w := g.t.Weight(id)
			if !hasPrevData || w < minPrevDataW {
				minPrevDataW = w
				hasPrevData = true
			}
		}
	}
	inPrev := func(id tree.ID) bool {
		for _, p := range prev {
			if p == id {
				return true
			}
		}
		return false
	}
	childOfPrev := func(id tree.ID) bool {
		p := g.t.Parent(id)
		return p != tree.None && inPrev(p)
	}

	if g.k == 1 && g.p.Property2 {
		if prevAllIndex {
			// Case 1(i): only children of the previous index node; among
			// data children keep only the heaviest (ties kept).
			kept := dst
			maxW := -1.0
			for _, id := range s {
				if !childOfPrev(id) {
					continue
				}
				if g.t.IsData(id) && g.t.Weight(id) > maxW {
					maxW = g.t.Weight(id)
				}
			}
			for _, id := range s {
				if !childOfPrev(id) {
					continue
				}
				if g.t.IsData(id) && g.t.Weight(id) < maxW {
					continue
				}
				kept = append(kept, id)
			}
			return kept
		}
		// Case 2: drop data heavier than the previous data node.
		kept := dst
		for _, id := range s {
			if g.t.IsData(id) && hasPrevData && g.t.Weight(id) > minPrevDataW && !childOfPrev(id) {
				continue
			}
			kept = append(kept, id)
		}
		return kept
	}

	if g.k > 1 && g.p.Property3 {
		if prevAllIndex {
			// Case 1(ii): data nodes must be children of the previous
			// compound; keep at most the k heaviest data candidates.
			kept := dst
			// The data candidates overwrite s in place: each is written at
			// or before the index being read.
			dataCands := s[:0]
			for _, id := range s {
				if g.t.IsData(id) {
					if childOfPrev(id) {
						dataCands = append(dataCands, id)
					}
					continue
				}
				kept = append(kept, id)
			}
			// Stable insertion sort by descending weight (the candidate
			// lists are tiny; this avoids sort.SliceStable's overhead).
			for i := 1; i < len(dataCands); i++ {
				for j := i; j > 0 && g.t.Weight(dataCands[j]) > g.t.Weight(dataCands[j-1]); j-- {
					dataCands[j], dataCands[j-1] = dataCands[j-1], dataCands[j]
				}
			}
			if len(dataCands) > g.k {
				// Keep the k heaviest plus any ties with the k-th.
				cut := g.t.Weight(dataCands[g.k-1])
				n := g.k
				for n < len(dataCands) && g.t.Weight(dataCands[n]) == cut {
					n++
				}
				dataCands = dataCands[:n]
			}
			kept = append(kept, dataCands...)
			return kept
		}
		// Case 2: drop data heavier than some data in prev unless it is a
		// child of prev.
		kept := dst
		for _, id := range s {
			if g.t.IsData(id) && hasPrevData && g.t.Weight(id) > minPrevDataW && !childOfPrev(id) {
				continue
			}
			kept = append(kept, id)
		}
		return kept
	}
	return s
}

// subsetOK applies the Appendix Step 3(ii) and Step 4 subset-level checks.
// cand is the filtered candidate set S, chosen is the proposed compound.
func (g *gen) subsetOK(cand, chosen, prev []tree.ID) bool {
	inChosen := func(id tree.ID) bool {
		for _, c := range chosen {
			if c == id {
				return true
			}
		}
		return false
	}
	inPrev := func(id tree.ID) bool {
		for _, p := range prev {
			if p == id {
				return true
			}
		}
		return false
	}
	childOfPrev := func(id tree.ID) bool {
		p := g.t.Parent(id)
		return p != tree.None && inPrev(p)
	}

	if g.p.DataRank {
		// Step 3(i): chosen data must be the heaviest among candidates —
		// no excluded data candidate may be strictly heavier than an
		// included one.
		minChosen := -1.0
		hasChosenData := false
		for _, id := range chosen {
			if g.t.IsData(id) {
				w := g.t.Weight(id)
				if !hasChosenData || w < minChosen {
					minChosen = w
					hasChosenData = true
				}
			}
		}
		if hasChosenData {
			for _, id := range cand {
				if g.t.IsData(id) && !inChosen(id) && g.t.Weight(id) > minChosen {
					return false
				}
			}
		} else {
			// A compound with no data while data candidates exist is
			// dominated only when... the paper does not force data into
			// every compound, so all-index compounds are kept.
			_ = hasChosenData
		}
	}

	if g.k > 1 && g.p.Property3 && len(prev) > 0 {
		prevAllIndex := true
		for _, id := range prev {
			if g.t.IsData(id) {
				prevAllIndex = false
				break
			}
		}
		if prevAllIndex {
			// Step 3(ii): at least one child of an element of prev.
			any := false
			for _, id := range chosen {
				if childOfPrev(id) {
					any = true
					break
				}
			}
			if !any {
				return false
			}
		}
		// Step 4: local-swap eliminations (Lemma 4).
		// An element x of prev is "movable" when none of its children is
		// in the chosen subset; an element y of chosen is "movable" when
		// it is not a child of any element of prev.
		movablePrevIndex := func() (tree.ID, bool) {
			for _, x := range prev {
				if !g.t.IsIndex(x) {
					continue
				}
				blocked := false
				for _, c := range g.t.Children(x) {
					if inChosen(c) {
						blocked = true
						break
					}
				}
				if !blocked {
					return x, true
				}
			}
			return tree.None, false
		}
		if x, ok := movablePrevIndex(); ok {
			_ = x
			for _, y := range chosen {
				if g.t.IsData(y) && !childOfPrev(y) {
					// Step 4(i): the data node y could move one slot
					// earlier in place of an index node — strictly better.
					return false
				}
			}
		}
		// Step 4(ii): canonical order for independent index pairs.
		for _, x := range prev {
			if !g.t.IsIndex(x) {
				continue
			}
			blocked := false
			for _, c := range g.t.Children(x) {
				if inChosen(c) {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			for _, y := range chosen {
				if g.t.IsIndex(y) && !childOfPrev(y) && g.t.Weight(y) > g.t.Weight(x) {
					return false
				}
			}
		}
	}
	return true
}

// eachSuccessor generates the next-neighbor compounds of the non-complete
// state cur, applying the configured pruning, and hands each survivor to
// g.child. Candidate compounds rejected by the subset-level rules are
// counted in stats.RulePruned.
func (g *gen) eachSuccessor(cur *state, out bestfirst.Sink[*state]) {
	if g.level == len(g.frames) {
		g.frames = append(g.frames, make([]tree.ID, 2*g.n+g.k))
	}
	// No buffer outgrows its share: S and its filtered form hold at most
	// n nodes, a compound at most k.
	b, n := g.frames[g.level], g.n
	g.level++
	switch s := g.filterS(b[n:n:2*n], g.available(b[:0:n], cur.placed), cur.compound); {
	case len(s) == 0:
	case len(s) <= g.k:
		g.offer(cur, s, s, out)
	default:
		g.subsets(cur, s, b[2*n:2*n], 0, out)
	}
	g.level--
}

// subsets extends chosen with elements of s from index start on until it
// holds k of them, then offers the compound. chosen has capacity k, so the
// recursion never allocates.
func (g *gen) subsets(cur *state, s, chosen []tree.ID, start int, out bestfirst.Sink[*state]) {
	if len(chosen) == g.k {
		g.offer(cur, s, chosen, out)
		return
	}
	// Not enough remaining elements to fill the subset.
	if len(s)-start < g.k-len(chosen) {
		return
	}
	for i := start; i < len(s); i++ {
		g.subsets(cur, s, append(chosen, s[i]), i+1, out)
	}
}

// offer passes compound comp, drawn from the candidates s, through the
// subset-level rules to g.child.
func (g *gen) offer(cur *state, s, comp []tree.ID, out bestfirst.Sink[*state]) {
	if g.subsetOK(s, comp, cur.compound) {
		g.child(cur, comp, out)
	} else if g.stats != nil {
		g.stats.RulePruned++
	}
}
