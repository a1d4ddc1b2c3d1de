package topo

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/bitset"
	"repro/internal/pool"
	"repro/internal/pqueue"
	"repro/internal/tree"
)

// This file keeps the topological-tree search as it was before it moved
// onto internal/bestfirst: its own dominance table, queue loop and
// expansion limit, and the recursive EnumeratePaths and BuildTree. The
// differential tests in engine_test.go hold the engine-driven code to it
// result for result and counter for counter.

// successors collects the next-neighbor compounds into freshly allocated
// slices, for the oracle walkers and the tests that step by hand.
func (g *gen) successors(placed bitset.Set, prev []tree.ID) [][]tree.ID {
	var out [][]tree.ID
	g.eachCompound(placed, prev, func(comp []tree.ID) {
		out = append(out, append([]tree.ID(nil), comp...))
	})
	return out
}

// eachCompound calls fn with each next-neighbor compound of the node with
// the given placed set and compound prev, as the pre-engine eachSuccessor
// did. The compound is valid only during the call.
func (g *gen) eachCompound(placed bitset.Set, prev []tree.ID, fn func(comp []tree.ID)) {
	g.eachSuccessor(&state{placed: placed, compound: prev}, compoundSink{g: g, fn: fn})
}

// compoundSink admits every successor and hands its compound to fn.
type compoundSink struct {
	g  *gen
	fn func([]tree.ID)
}

func (c compoundSink) New() *state       { return c.g.New() }
func (c compoundSink) Admit(*state) bool { return true }
func (c compoundSink) Push(s *state)     { c.fn(s.compound) }

// oracleState is the pre-engine search state.
type oracleState struct {
	placed   bitset.Set
	compound []tree.ID // the compound placed at this state's slot
	sorted   []tree.ID // compound in ascending ID order (dominance key)
	depth    int       // slots used so far
	v        float64   // accumulated Σ W·T of placed data nodes
	f        float64   // v + admissible bound
	parent   *oracleState
	tail     [][]tree.ID // forced completion levels (Property 1), if any
}

// levels reconstructs the compound levels of a complete state.
func (s *oracleState) levels() [][]tree.ID {
	var rev []*oracleState
	for cur := s; cur != nil; cur = cur.parent {
		rev = append(rev, cur)
	}
	var out [][]tree.ID
	for i := len(rev) - 1; i >= 0; i-- {
		if len(rev[i].compound) > 0 {
			out = append(out, rev[i].compound)
		}
	}
	out = append(out, s.tail...)
	return out
}

// oracleSearch is the pre-engine Search.
func oracleSearch(t *tree.Tree, opt Options) (*Result, error) {
	g, err := newGen(t, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	g.stats = &res.Stats

	dom := newOracleDomTable()

	// states recycles states skipped stale at pop time. Such a state is
	// referenced by nothing — it was never expanded (so it is nobody's
	// parent) and the dominance entry for its key aliases a strictly
	// cheaper state — so its backing storage can serve a future state.
	states := pool.New(func() *oracleState { return &oracleState{placed: bitset.New(g.n)} })
	newState := func() *oracleState {
		s := states.Get()
		s.parent = nil
		s.tail = nil
		return s
	}

	q := pqueue.New(func(a, b *oracleState) bool { return a.f < b.f })
	push := func(s *oracleState, h uint64, e *oracleDomEntry) {
		dom.record(e, h, s.placed, s.depth, s.sorted, s.v)
		res.Stats.Generated++
		q.Push(s)
	}

	root := newState()
	root.placed.Add(int(t.Root()))
	root.compound = append(root.compound[:0], t.Root())
	root.sorted = append(root.sorted[:0], t.Root())
	root.depth = 1
	root.v = g.compoundCost(root.compound, 1)
	root.f = root.v + g.bound(root.placed, 1)
	push(root, oracleDomHash(root.placed, root.depth, root.sorted), nil)

	sortBuf := make([]tree.ID, 0, g.k)

	for q.Len() > 0 {
		cur := q.Pop()
		h := oracleDomHash(cur.placed, cur.depth, cur.sorted)
		if e := dom.lookup(h, cur.placed, cur.depth, cur.sorted); e != nil && e.v < cur.v {
			res.Stats.DomStale++
			states.Put(cur)
			continue
		}
		if cur.placed.Equal(g.all) {
			res.Stats.PeakQueue = q.Peak()
			res.Stats.HashCollisions = dom.collisions
			return oracleFinish(g, cur, res)
		}
		if opt.MaxExpanded > 0 && res.Stats.Expanded >= opt.MaxExpanded {
			return nil, fmt.Errorf("%w (limit %d)", ErrExpansionLimit, opt.MaxExpanded)
		}
		res.Stats.Expanded++

		// Property 1: forced completion once every index node is placed.
		if g.p.Property1 && g.allIndexPlaced(cur.placed) {
			nRest, cost := g.completionCostRemaining(cur.placed, cur.depth)
			depth := cur.depth + (nRest+g.k-1)/g.k
			v := cur.v + cost
			dh := oracleDomHash(g.all, depth, nil)
			e := dom.lookup(dh, g.all, depth, nil)
			if e != nil && e.v <= v {
				res.Stats.DomPruned++
				continue
			}
			done := newState()
			done.placed.Copy(g.all)
			done.compound = done.compound[:0]
			done.sorted = done.sorted[:0]
			done.depth = depth
			done.v = v
			done.f = v
			done.parent = cur
			done.tail = g.completionLevels(g.remainingDataDesc(cur.placed))
			push(done, dh, e)
			continue
		}

		g.eachCompound(cur.placed, cur.compound, func(comp []tree.ID) {
			next := newState()
			next.placed.Copy(cur.placed)
			for _, id := range comp {
				next.placed.Add(int(id))
			}
			depth := cur.depth + 1
			v := cur.v + g.compoundCost(comp, depth)
			sortBuf = sortIDs(append(sortBuf[:0], comp...))
			nh := oracleDomHash(next.placed, depth, sortBuf)
			e := dom.lookup(nh, next.placed, depth, sortBuf)
			if e != nil && e.v <= v {
				res.Stats.DomPruned++
				states.Put(next)
				return
			}
			next.compound = append(next.compound[:0], comp...)
			next.sorted = append(next.sorted[:0], sortBuf...)
			next.depth = depth
			next.v = v
			next.f = v + g.bound(next.placed, depth)
			next.parent = cur
			push(next, nh, e)
		})
	}
	return nil, fmt.Errorf("topo: pruned search space contains no complete allocation")
}

func oracleFinish(g *gen, s *oracleState, res *Result) (*Result, error) {
	a, err := alloc.FromLevels(g.t, g.k, s.levels())
	if err != nil {
		return nil, fmt.Errorf("topo: internal error building allocation: %w", err)
	}
	res.Alloc = a
	res.Cost = a.DataWait()
	res.Expanded = res.Stats.Expanded
	res.Generated = res.Stats.Generated
	return res, nil
}

// oracleEnumeratePaths is the pre-engine EnumeratePaths.
func oracleEnumeratePaths(t *tree.Tree, opt Options, visit func(levels [][]tree.ID, cost float64) bool) (uint64, error) {
	g, err := newGen(t, opt)
	if err != nil {
		return 0, err
	}
	var count uint64
	stop := false

	placed := bitset.New(g.n)
	placed.Add(int(t.Root()))
	levels := [][]tree.ID{{t.Root()}}
	v0 := g.compoundCost(levels[0], 1)

	var rec func(depth int, v float64)
	rec = func(depth int, v float64) {
		if stop {
			return
		}
		if placed.Equal(g.all) {
			count++
			if visit != nil && !visit(levels, v) {
				stop = true
			}
			return
		}
		if g.p.Property1 && g.allIndexPlaced(placed) {
			rest := g.remainingDataDesc(placed)
			tail := g.completionLevels(rest)
			levels = append(levels, tail...)
			count++
			if visit != nil && !visit(levels, v+g.completionCost(rest, depth)) {
				stop = true
			}
			levels = levels[:len(levels)-len(tail)]
			return
		}
		prev := levels[len(levels)-1]
		for _, comp := range g.successors(placed, prev) {
			for _, id := range comp {
				placed.Add(int(id))
			}
			levels = append(levels, comp)
			rec(depth+1, v+g.compoundCost(comp, depth+1))
			levels = levels[:len(levels)-1]
			for _, id := range comp {
				placed.Remove(int(id))
			}
			if stop {
				return
			}
		}
	}
	rec(1, v0)
	return count, nil
}

// oracleBuildTree is the pre-engine BuildTree.
func oracleBuildTree(t *tree.Tree, opt Options, maxNodes int) (*Node, int, error) {
	g, err := newGen(t, opt)
	if err != nil {
		return nil, 0, err
	}
	placed := bitset.New(g.n)
	placed.Add(int(t.Root()))
	root := &Node{Compound: []tree.ID{t.Root()}}
	root.Cost = g.compoundCost(root.Compound, 1)
	count := 1

	var expand func(n *Node, depth int) error
	expand = func(n *Node, depth int) error {
		if maxNodes > 0 && count > maxNodes {
			return fmt.Errorf("topo: tree exceeds %d nodes", maxNodes)
		}
		if placed.Equal(g.all) {
			return nil
		}
		if g.p.Property1 && g.allIndexPlaced(placed) {
			// A forced completion renders as a chain of compounds.
			rest := g.remainingDataDesc(placed)
			parent := n
			for i, level := range g.completionLevels(rest) {
				child := &Node{
					Compound: level,
					Cost:     parent.Cost + g.compoundCost(level, depth+1+i),
					Forced:   true,
				}
				count++
				parent.Children = append(parent.Children, child)
				parent = child
			}
			return nil
		}
		for _, comp := range g.successors(placed, n.Compound) {
			child := &Node{
				Compound: comp,
				Cost:     n.Cost + g.compoundCost(comp, depth+1),
			}
			count++
			for _, id := range comp {
				placed.Add(int(id))
			}
			n.Children = append(n.Children, child)
			err := expand(child, depth+1)
			for _, id := range comp {
				placed.Remove(int(id))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := expand(root, 1); err != nil {
		return nil, count, err
	}
	return root, count, nil
}

// oracleDomTable is the dominance map of the best-first search: the cheapest
// accumulated cost V seen per (placed set, depth, last compound) key. The
// seed implementation keyed a Go map by strings built from every generated
// state — the dominant allocation cost of the search. This table keys by a
// 64-bit hash of the same material and resolves collisions by chaining
// over the full key, so a lookup allocates nothing and an insert allocates
// only the entry.
type oracleDomTable struct {
	m map[uint64]*oracleDomEntry
	// collisions counts lookups that walked past an entry with the same
	// hash but a different full key.
	collisions int
}

// oracleDomEntry records the cheapest pushed state for one dominance key. The
// placed and comp slices alias the fields of that state (states are
// immutable once pushed, and the entry is rebound whenever a cheaper state
// replaces the incumbent, so the aliased storage is never recycled while
// referenced).
type oracleDomEntry struct {
	placed bitset.Set
	depth  int
	comp   []tree.ID // canonically sorted compound; nil for completions
	v      float64
	next   *oracleDomEntry
}

func newOracleDomTable() *oracleDomTable {
	return &oracleDomTable{m: make(map[uint64]*oracleDomEntry)}
}

// oracleDomHash folds the full dominance key into 64 bits. sortedComp must be in
// canonical (ascending ID) order so permuted compounds hash alike.
func oracleDomHash(placed bitset.Set, depth int, sortedComp []tree.ID) uint64 {
	h := placed.Hash(uint64(depth) + 0x517cc1b727220a95)
	for _, id := range sortedComp {
		h = bitset.HashWord(h, uint64(id))
	}
	return h
}

// lookup returns the entry matching the full key, or nil.
func (t *oracleDomTable) lookup(h uint64, placed bitset.Set, depth int, sortedComp []tree.ID) *oracleDomEntry {
	for e := t.m[h]; e != nil; e = e.next {
		if e.depth == depth && oracleCompEqual(e.comp, sortedComp) && e.placed.Equal(placed) {
			return e
		}
		t.collisions++
	}
	return nil
}

// record stores v as the cheapest cost for the key, rebinding the entry's
// aliased storage to the new incumbent. e is the entry lookup returned
// (nil to insert fresh).
func (t *oracleDomTable) record(e *oracleDomEntry, h uint64, placed bitset.Set, depth int, sortedComp []tree.ID, v float64) {
	if e != nil {
		e.placed = placed
		e.comp = sortedComp
		e.v = v
		return
	}
	t.m[h] = &oracleDomEntry{placed: placed, depth: depth, comp: sortedComp, v: v, next: t.m[h]}
}

func oracleCompEqual(a, b []tree.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// remainingDataDesc, completionLevels and completionCost are the
// pre-engine Property 1 helpers the oracles use.

// remainingDataDesc returns the unplaced data nodes in descending weight.
func (g *gen) remainingDataDesc(placed bitset.Set) []tree.ID {
	var out []tree.ID
	for _, d := range g.dataDesc {
		if !placed.Contains(int(d)) {
			out = append(out, d)
		}
	}
	return out
}

// completionLevels packs ids k per slot in the given order.
func (g *gen) completionLevels(ids []tree.ID) [][]tree.ID {
	var levels [][]tree.ID
	for len(ids) > 0 {
		n := g.k
		if n > len(ids) {
			n = len(ids)
		}
		levels = append(levels, append([]tree.ID(nil), ids[:n]...))
		ids = ids[n:]
	}
	return levels
}

// completionCost is the Formula-1 numerator contribution of packing the
// given data nodes k per slot starting at slot depth+1.
func (g *gen) completionCost(ids []tree.ID, depth int) float64 {
	var sum float64
	for i, id := range ids {
		slot := depth + 1 + i/g.k
		sum += g.t.Weight(id) * float64(slot)
	}
	return sum
}
