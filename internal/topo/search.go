package topo

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/bestfirst"
	"repro/internal/bitset"
	"repro/internal/tree"
)

// ErrExpansionLimit is the sentinel wrapped by Search when it aborts
// after Options.MaxExpanded expansions; callers detect it with errors.Is
// to fall back to a heuristic instead of failing outright. It is the
// engine's sentinel, shared with the data-tree search.
var ErrExpansionLimit = bestfirst.ErrExpansionLimit

// state is one node of the topological tree. A state with an empty
// compound is a Property 1 forced completion: its slots hold its parent's
// unplaced data (g.tail).
type state struct {
	placed   bitset.Set
	compound []tree.ID // the compound placed at this state's slot
	sorted   []tree.ID // compound in ascending ID order (dominance key)
	depth    int       // slots used so far
	v        float64   // accumulated Σ W·T of placed data nodes
	parent   *state
}

// forced reports whether s is a Property 1 forced completion.
func (s *state) forced() bool { return len(s.compound) == 0 }

// levels reconstructs the compound levels of a complete state.
func (g *gen) levels(s *state) [][]tree.ID {
	rev := make([]*state, 0, s.depth)
	for cur := s; cur != nil; cur = cur.parent {
		rev = append(rev, cur)
	}
	out := make([][]tree.ID, 0, s.depth)
	for i := len(rev) - 1; i >= 0; i-- {
		if !rev[i].forced() {
			out = append(out, rev[i].compound)
		}
	}
	if s.forced() {
		out = append(out, g.tail(s)...)
	}
	return out
}

// sortIDs insertion-sorts ids in place (compounds hold at most k elements,
// so this beats sort.Slice without allocating).
func sortIDs(ids []tree.ID) []tree.ID {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// The topological tree as a bestfirst.Space. A state's dominance key is
// (placed set, depth, last compound in canonical order): two states with
// equal keys have equal futures, so only the cheaper V need survive.

// New returns a blank state.
func (g *gen) New() *state { return &state{placed: bitset.New(g.n)} }

// Hash folds the dominance key into 64 bits.
func (g *gen) Hash(s *state) uint64 {
	h := s.placed.Hash(uint64(s.depth) + 0x517cc1b727220a95)
	for _, id := range s.sorted {
		h = bitset.HashWord(h, uint64(id))
	}
	return h
}

// Same reports whether a and b have equal dominance keys.
func (g *gen) Same(a, b *state) bool {
	if a.depth != b.depth || len(a.sorted) != len(b.sorted) {
		return false
	}
	for i := range a.sorted {
		if a.sorted[i] != b.sorted[i] {
			return false
		}
	}
	return a.placed.Equal(b.placed)
}

func (g *gen) Cost(s *state) float64  { return s.v }
func (g *gen) Bound(s *state) float64 { return g.bound(s.placed, s.depth) }
func (g *gen) Goal(s *state) bool     { return s.placed.Equal(g.all) }

// root returns the tree's root state: the index root alone in slot 1.
func (g *gen) root() *state {
	s := g.New()
	s.placed.Add(int(g.t.Root()))
	g.place(s, []tree.ID{g.t.Root()})
	s.depth = 1
	s.v = g.compoundCost(s.compound, 1)
	return s
}

// place sets s's compound, and its canonical order, to comp. The two
// buffers share one backing made on first use, so a state that only ever
// holds completions needs none.
func (g *gen) place(s *state, comp []tree.ID) {
	if s.sorted == nil {
		ids := make([]tree.ID, 2*g.k)
		s.compound, s.sorted = ids[:0:g.k], ids[g.k:g.k]
	}
	s.compound = append(s.compound[:0], comp...)
	s.sorted = sortIDs(append(s.sorted[:0], comp...))
}

// Expand is the successor step of the topological tree. Once Property 1
// applies (every index node placed), the only child is the forced
// completion: the remaining data, heaviest first, k per slot, as one
// state. Otherwise each next-neighbor compound that survives the pruning
// rules is placed one slot deeper (eachSuccessor, child). Each child's
// dominance key and V are set before Admit.
func (g *gen) Expand(cur *state, out bestfirst.Sink[*state]) {
	if !g.p.Property1 || !g.allIndexPlaced(cur.placed) {
		g.eachSuccessor(cur, out)
		return
	}
	nRest, cost := g.completionCostRemaining(cur.placed, cur.depth)
	done := out.New()
	done.placed.Copy(g.all)
	done.compound, done.sorted = done.compound[:0], done.sorted[:0]
	done.depth = cur.depth + (nRest+g.k-1)/g.k
	done.v = cur.v + cost
	if out.Admit(done) {
		done.parent = cur
		out.Push(done)
	}
}

// child places compound comp one slot below cur.
func (g *gen) child(cur *state, comp []tree.ID, out bestfirst.Sink[*state]) {
	next := out.New()
	next.placed.Copy(cur.placed)
	for _, id := range comp {
		next.placed.Add(int(id))
	}
	next.depth = cur.depth + 1
	next.v = cur.v + g.compoundCost(comp, next.depth)
	g.place(next, comp)
	if out.Admit(next) {
		next.parent = cur
		out.Push(next)
	}
}

// Search runs the paper's best-first search over the (optionally pruned)
// k-channel topological tree and returns an optimal allocation among the
// paths the pruned tree retains. With AllPrunes this is the paper's full
// algorithm; the pruning properties guarantee an optimal path survives
// (property-tested against Exact). The queue loop, dominance rule and
// expansion limit are internal/bestfirst's.
func Search(t *tree.Tree, opt Options) (*Result, error) {
	g, err := newGen(t, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	g.stats = &res.Stats
	goal, ok, err := bestfirst.Search[*state](g, g.root(), opt.MaxExpanded, &res.Stats)
	if err != nil {
		return nil, fmt.Errorf("topo: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("topo: pruned search space contains no complete allocation")
	}
	return finish(g, goal, res)
}

// finish materializes the allocation of a complete state.
func finish(g *gen, s *state, res *Result) (*Result, error) {
	a, err := alloc.FromLevels(g.t, g.k, g.levels(s))
	if err != nil {
		return nil, fmt.Errorf("topo: internal error building allocation: %w", err)
	}
	res.Alloc = a
	res.Cost = a.DataWait()
	res.Expanded = res.Stats.Expanded
	res.Generated = res.Stats.Generated
	return res, nil
}

// Exact returns a provably optimal allocation using A* over (placed, depth)
// states with only safe reductions: maximal slot filling (Algorithm 1
// itself generates only maximal compounds, which is optimal by a left-
// compaction argument), Property 1 completion, and the heaviest-available
// data-rank rule (an exchange argument: among the data nodes available at
// a slot, scheduling any but the heaviest is weakly dominated).
func Exact(t *tree.Tree, k int) (*Result, error) {
	return Search(t, Options{
		Channels:   k,
		Prune:      Prune{Property1: true, DataRank: true},
		TightBound: true,
	})
}

// EnumeratePaths walks every root-to-leaf path of the (optionally pruned)
// topological tree in depth-first order, invoking visit with the compound
// levels and the path's weighted wait sum. The levels are valid only
// during the call. visit returns false to stop the enumeration early. It
// returns the number of complete paths visited.
//
// With Prune.Property1 enabled, each forced completion counts as a single
// path, matching how the paper counts reduced-tree paths in Table 1.
func EnumeratePaths(t *tree.Tree, opt Options, visit func(levels [][]tree.ID, cost float64) bool) (uint64, error) {
	g, err := newGen(t, opt)
	if err != nil {
		return 0, err
	}
	var count uint64
	var levels [][]tree.ID
	bestfirst.Walk[*state](g, g.root(), func(s *state, depth int) bool {
		if s.forced() {
			levels = append(levels[:depth], g.tail(s)...)
		} else {
			levels = append(levels[:depth], s.compound)
		}
		if !g.Goal(s) {
			return true
		}
		count++
		return visit == nil || visit(levels, s.v)
	})
	return count, nil
}

// CountPaths counts the root-to-leaf paths of the (optionally pruned)
// topological tree, stopping at limit (0 = no limit). exceeded reports an
// early stop.
func CountPaths(t *tree.Tree, opt Options, limit uint64) (count uint64, exceeded bool, err error) {
	var visited uint64
	n, err := EnumeratePaths(t, opt, func([][]tree.ID, float64) bool {
		visited++
		// Allow one extra visit past the limit so we can distinguish
		// "exactly limit paths" from "more than limit".
		return limit == 0 || visited <= limit
	})
	if err != nil {
		return 0, false, err
	}
	if limit > 0 && n > limit {
		return limit, true, nil
	}
	return n, false, nil
}

// Corollary1 applies the paper's Corollary 1: when k is at least the
// maximum number of nodes on any level of the index tree, assigning level
// L to slot L is optimal. ok is false when the corollary does not apply.
func Corollary1(t *tree.Tree, k int) (*Result, bool, error) {
	if k < t.MaxLevelWidth() {
		return nil, false, nil
	}
	levels := make([][]tree.ID, t.Depth())
	for l := 1; l <= t.Depth(); l++ {
		levels[l-1] = t.LevelNodes(l)
	}
	a, err := alloc.FromLevels(t, k, levels)
	if err != nil {
		return nil, false, err
	}
	return &Result{Alloc: a, Cost: a.DataWait()}, true, nil
}
