// Package datatree implements Section 3.3 of the paper: the single-channel
// data tree. A path of the data tree is an order of the data nodes only;
// the index nodes are implied, each data node D carrying the bookkeeping
// sets Cancestor(D) (ancestors already broadcast) and Nancestor(D)
// (ancestors that must be emitted immediately before D). The package
// provides:
//
//   - BroadcastFromDataOrder: expand a data order into the full broadcast
//     (the paper's generation procedure).
//   - Search: best-first search for the optimal single-channel allocation
//     over the (optionally pruned) data tree.
//   - EnumeratePaths / CountPaths: walk or count the reduced data tree,
//     used by the Table 1 pruning-effect experiment.
//
// The base data tree applies the paper's Lemma 3: data nodes sharing a
// parent appear in descending weight order (the "By Property 2" column of
// Table 1). Options add Property 1 (forced completion once every index
// node has been broadcast), Property 4 (the Lemma 6 pairwise-exchange
// test), and the Corollary 2 generalization to m-and-1 block exchanges.
package datatree

import (
	"fmt"
	"math/big"

	"repro/internal/alloc"
	"repro/internal/bestfirst"
	"repro/internal/bitset"
	"repro/internal/searchstats"
	"repro/internal/tree"
)

// ErrExpansionLimit is the sentinel wrapped by Search when it aborts
// after Options.MaxExpanded expansions; callers detect it with errors.Is
// to fall back to a heuristic instead of failing outright. It is the
// engine's sentinel, shared with the topological-tree search.
var ErrExpansionLimit = bestfirst.ErrExpansionLimit

// Options selects the data-tree pruning rules.
type Options struct {
	// Property1: once Cancestor covers every index node, the remaining
	// data nodes follow in descending weight order as a single forced
	// completion.
	Property1 bool
	// Property4: prune a child when exchanging it with its predecessor
	// (one-and-one, Lemma 6) would strictly improve the broadcast.
	Property4 bool
	// MNExchange extends Property 4 to m-and-1 block exchanges
	// (Corollary 2): blocks of up to MNExchange preceding data nodes are
	// tested against the candidate. Values < 2 disable the extension.
	MNExchange int
	// MaxExpanded aborts Search after this many expansions (0 = no limit).
	MaxExpanded int
}

// AllOptions enables Property 1 and Property 4, the paper's full
// single-channel algorithm.
func AllOptions() Options { return Options{Property1: true, Property4: true} }

// Result is the outcome of a data-tree search.
type Result struct {
	// Order is the optimal data-node order.
	Order []tree.ID
	// Sequence is the full broadcast (index nodes interleaved).
	Sequence []tree.ID
	// Alloc is the resulting single-channel allocation.
	Alloc *alloc.Allocation
	// Cost is the average data wait (Formula 1).
	Cost float64
	// Expanded and Generated count search effort for the ablations and
	// mirror the corresponding Stats fields.
	Expanded, Generated int
	// Stats holds the full per-search performance counters.
	Stats searchstats.Stats
}

// ctx holds per-run immutable context. It is the data tree as a
// bestfirst.Space; the successor step keeps no scratch, so a walk may
// generate a child's children while its parent's generation runs. Only
// Bound, which a walk never calls, uses scratch (rel's).
type ctx struct {
	t        *tree.Tree
	opt      Options
	n        int
	dataIDs  []tree.ID
	dataDesc []tree.ID
	indexSet bitset.Set
	ancList  [][]tree.ID // ancestors root-down per node ID
	heavier  [][]tree.ID // per data node, its strictly heavier same-parent data siblings
	rel      tree.ReleaseBound

	stats *searchstats.Stats // counters of the running search (nil outside Search)
}

func newCtx(t *tree.Tree, opt Options) *ctx {
	c := &ctx{t: t, opt: opt, n: t.NumNodes()}
	c.dataIDs = t.DataIDs()
	c.dataDesc = t.SortedDataByWeight()
	c.rel = tree.NewReleaseBound(t, c.dataDesc)
	c.indexSet = bitset.New(c.n)
	for i := 0; i < c.n; i++ {
		if t.IsIndex(tree.ID(i)) {
			c.indexSet.Add(i)
		}
	}
	// Both per-node lists share one backing array each, sized up front so
	// it never regrows, and filled in preorder so a parent's ancestor list
	// exists before its children's. A parent with m data children gives
	// them at most m·(m−1) heavier-sibling entries.
	c.ancList = make([][]tree.ID, c.n)
	c.heavier = make([][]tree.ID, c.n)
	nanc, nsib := 0, 0
	for i := 0; i < c.n; i++ {
		nanc += t.Level(tree.ID(i)) - 1
		m := 0
		for _, ch := range t.Children(tree.ID(i)) {
			if t.IsData(ch) {
				m++
			}
		}
		nsib += m * (m - 1)
	}
	anc, heavier := make([]tree.ID, 0, nanc), make([]tree.ID, 0, nsib)
	for _, id := range t.Preorder() {
		start := len(anc)
		if p := t.Parent(id); p != tree.None {
			anc = append(append(anc, c.ancList[p]...), p)
		}
		c.ancList[id] = anc[start:len(anc):len(anc)]
		start = len(heavier)
		heavier = c.heavierSiblings(heavier, id)
		c.heavier[id] = heavier[start:len(heavier):len(heavier)]
	}
	return c
}

// heavierSiblings appends to dst the same-parent data siblings of data
// node d with strictly larger weight (Lemma 3 keeps ties in either order).
func (c *ctx) heavierSiblings(dst []tree.ID, d tree.ID) []tree.ID {
	p := c.t.Parent(d)
	if !c.t.IsData(d) || p == tree.None {
		return dst
	}
	for _, s := range c.t.Children(p) {
		if c.t.IsData(s) && c.t.Weight(s) > c.t.Weight(d) {
			dst = append(dst, s)
		}
	}
	return dst
}

// isAncestor reports whether a is a proper ancestor of d: d's root-down
// ancestor list holds a at a's level.
func (c *ctx) isAncestor(a, d tree.ID) bool {
	l := c.t.Level(a) - 1
	return l < len(c.ancList[d]) && c.ancList[d][l] == a
}

// nancInto appends Ancestor(d) − covered to dst in root-down order.
func (c *ctx) nancInto(dst []tree.ID, d tree.ID, covered bitset.Set) []tree.ID {
	for _, a := range c.ancList[d] {
		if !covered.Contains(int(a)) {
			dst = append(dst, a)
		}
	}
	return dst
}

// nancCount returns |Ancestor(d) − covered| without materializing the set.
func (c *ctx) nancCount(d tree.ID, covered bitset.Set) int {
	n := 0
	for _, a := range c.ancList[d] {
		if !covered.Contains(int(a)) {
			n++
		}
	}
	return n
}

// heavierSiblingUnused reports whether d has an unused same-parent data
// sibling with strictly larger weight (ties allowed in either order).
func (c *ctx) heavierSiblingUnused(d tree.ID, used bitset.Set) bool {
	for _, s := range c.heavier[d] {
		if !used.Contains(int(s)) {
			return true
		}
	}
	return false
}

// keepAfter applies Property 4 (and, when enabled, the Corollary 2 block
// generalization) to candidate d following the data-tree node last.
func (c *ctx) keepAfter(last *state, d tree.ID) bool {
	if last.parent == nil || !c.opt.Property4 {
		return true
	}
	nb := float64(c.nancCount(d, last.covered) + 1)
	wd := c.t.Weight(d)

	// One-and-one exchange (Property 4 proper).
	excl := 0
	for _, a := range last.nanc {
		if c.isAncestor(a, d) {
			excl++
		}
	}
	na := float64(len(last.nanc) - excl + 1)
	wa := c.t.Weight(last.d)
	if nb*wa < na*wd {
		return false
	}

	// m-and-1 block exchanges (Corollary 2).
	if c.opt.MNExchange >= 2 {
		blockLen := 1
		blockNodes := float64(len(last.nanc) - excl + 1)
		blockWeight := wa
		for m := last.parent; m.parent != nil && blockLen < c.opt.MNExchange; m = m.parent {
			// The candidate's ancestors may only overlap the Nancestor of
			// the block's first member (they form a removable prefix
			// there); overlap with any later member breaks contiguity.
			overlapInner := false
			for cur := last; cur != m; cur = cur.parent {
				for _, a := range cur.nanc {
					if c.isAncestor(a, d) {
						overlapInner = true
						break
					}
				}
				if overlapInner {
					break
				}
			}
			if overlapInner {
				break
			}
			exclM := 0
			for _, a := range m.nanc {
				if c.isAncestor(a, d) {
					exclM++
				}
			}
			blockLen++
			blockNodes += float64(len(m.nanc) - exclM + 1)
			blockWeight += c.t.Weight(m.d)
			if nb*blockWeight < blockNodes*wd {
				return false
			}
		}
	}
	return true
}

// BroadcastFromDataOrder expands a data-node order into the full broadcast
// sequence by emitting, before each data node, its not-yet-broadcast
// ancestors in root-down order (the paper's generation procedure).
func BroadcastFromDataOrder(t *tree.Tree, order []tree.ID) ([]tree.ID, error) {
	covered := bitset.New(t.NumNodes())
	seen := bitset.New(t.NumNodes())
	seq := make([]tree.ID, 0, t.NumNodes())
	for _, d := range order {
		if !t.IsData(d) {
			return nil, fmt.Errorf("datatree: %s is not a data node", t.Label(d))
		}
		if seen.Contains(int(d)) {
			return nil, fmt.Errorf("datatree: %s appears twice", t.Label(d))
		}
		seen.Add(int(d))
		for _, a := range t.Ancestors(d) {
			if !covered.Contains(int(a)) {
				covered.Add(int(a))
				seq = append(seq, a)
			}
		}
		seq = append(seq, d)
	}
	if len(order) != t.NumData() {
		return nil, fmt.Errorf("datatree: order has %d of %d data nodes", len(order), t.NumData())
	}
	return seq, nil
}

// state is a data-tree node: the data placed so far, the index nodes
// they imply, and the path's cost.
type state struct {
	used    bitset.Set
	covered bitset.Set
	d       tree.ID   // the data node placed last; tree.None at the root
	nanc    []tree.ID // Nancestor(d): the ancestors emitted immediately before d
	parent  *state
	pos     int     // broadcast length so far
	v       float64 // Σ W·T over placed data
}

// The data tree as a bestfirst.Space. A state's dominance key is (used
// set, last data node): the covered set and broadcast position follow
// from the used set, and the last data node matters because Property 4
// conditions children on it.

// New returns a blank state.
func (c *ctx) New() *state {
	return &state{used: bitset.New(c.n), covered: bitset.New(c.n), d: tree.None}
}

// Hash folds the dominance key into 64 bits.
func (c *ctx) Hash(s *state) uint64 {
	return bitset.HashWord(s.used.Hash(0x2545f4914f6cdd1d), uint64(int64(s.d)))
}

// Same reports whether a and b have equal dominance keys.
func (c *ctx) Same(a, b *state) bool { return a.d == b.d && a.used.Equal(b.used) }

// Bound is tree.ReleaseBound on one channel: broadcast position plays the
// role of slot, a data node waits for its uncovered ancestors, and each
// uncovered index node takes a position of its own.
func (c *ctx) Bound(s *state) float64 { return c.rel.Cost(s.used, s.covered, s.pos, 1) }

func (c *ctx) Cost(s *state) float64 { return s.v }
func (c *ctx) Goal(s *state) bool    { return s.used.Len() == len(c.dataIDs) }

// Expand is the successor step of the data tree: every unused data node
// with no heavier unused sibling (Lemma 3) — only the heaviest remaining
// one once every index node is covered (Property 1) — that Property 4
// keeps after cur becomes a child.
func (c *ctx) Expand(cur *state, out bestfirst.Sink[*state]) {
	if c.opt.Property1 && c.indexSet.SubsetOf(cur.covered) {
		for _, d := range c.dataDesc {
			if !cur.used.Contains(int(d)) {
				c.child(cur, d, out)
				return
			}
		}
		return
	}
	for _, d := range c.dataIDs {
		if !cur.used.Contains(int(d)) && !c.heavierSiblingUnused(d, cur.used) {
			c.child(cur, d, out)
		}
	}
}

// child places data node d after cur, emitting its Nancestor first. The
// dominance key and V are set before Admit, the covered set only once
// admitted. Property 4 rejections count as RulePruned.
func (c *ctx) child(cur *state, d tree.ID, out bestfirst.Sink[*state]) {
	if !c.keepAfter(cur, d) {
		if c.stats != nil {
			c.stats.RulePruned++
		}
		return
	}
	next := out.New()
	next.used.Copy(cur.used)
	next.used.Add(int(d))
	next.d, next.parent = d, cur
	next.nanc = c.nancInto(next.nanc[:0], d, cur.covered)
	next.pos = cur.pos + len(next.nanc) + 1
	next.v = cur.v + c.t.Weight(d)*float64(next.pos)
	if out.Admit(next) {
		next.covered.Copy(cur.covered)
		for _, a := range next.nanc {
			next.covered.Add(int(a))
		}
		out.Push(next)
	}
}

// Search finds the optimal single-channel allocation by best-first search
// over the (pruned) data tree. With AllOptions this is the paper's
// Section 3.3 algorithm; all prunings preserve an optimal path
// (property-tested against topo.Exact). The queue loop, dominance rule and
// expansion limit are internal/bestfirst's.
func Search(t *tree.Tree, opt Options) (*Result, error) {
	c := newCtx(t, opt)
	res := &Result{}
	c.stats = &res.Stats
	goal, ok, err := bestfirst.Search[*state](c, c.New(), opt.MaxExpanded, &res.Stats)
	if err != nil {
		return nil, fmt.Errorf("datatree: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("datatree: pruned data tree contains no complete path")
	}
	return c.finish(goal, res)
}

func (c *ctx) finish(s *state, res *Result) (*Result, error) {
	order := make([]tree.ID, len(c.dataIDs))
	for i := len(order) - 1; s.parent != nil; i, s = i-1, s.parent {
		order[i] = s.d
	}
	seq, err := BroadcastFromDataOrder(c.t, order)
	if err != nil {
		return nil, err
	}
	a, err := alloc.FromSequence(c.t, seq)
	if err != nil {
		return nil, err
	}
	res.Order = order
	res.Sequence = seq
	res.Alloc = a
	res.Cost = a.DataWait()
	res.Expanded = res.Stats.Expanded
	res.Generated = res.Stats.Generated
	return res, nil
}

// EnumeratePaths walks every root-to-leaf path of the (pruned) data tree,
// invoking visit with the data order and its weighted wait sum; visit
// returns false to stop early. The order is valid only during the call.
// Returns the number of complete paths.
func EnumeratePaths(t *tree.Tree, opt Options, visit func(order []tree.ID, cost float64) bool) (uint64, error) {
	if t.NumData() == 0 {
		return 0, fmt.Errorf("datatree: tree has no data nodes")
	}
	c := newCtx(t, opt)
	order := make([]tree.ID, t.NumData())
	var count uint64
	bestfirst.Walk[*state](c, c.New(), func(s *state, depth int) bool {
		if depth == 0 {
			return true
		}
		order[depth-1] = s.d
		if depth < len(order) {
			return true
		}
		count++
		return visit == nil || visit(order, s.v)
	})
	return count, nil
}

// CountPaths counts root-to-leaf paths of the (pruned) data tree, stopping
// once the count would exceed limit (0 = no limit).
func CountPaths(t *tree.Tree, opt Options, limit uint64) (count uint64, exceeded bool, err error) {
	var visited uint64
	n, err := EnumeratePaths(t, opt, func([]tree.ID, float64) bool {
		visited++
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

// BasePathCount returns the closed-form size of the base data tree (the
// "By Property 2" column of Table 1): the number of interleavings of the
// same-parent data groups with each group's internal order fixed, i.e.
// the multinomial coefficient (Σ nᵢ)! / Π nᵢ! over group sizes nᵢ.
// For a full balanced m-ary tree of depth 3 this is (m²)!/(m!)^m.
//
// The closed form assumes distinct weights within each group; ties keep
// both orders and enlarge the enumerated tree.
func BasePathCount(t *tree.Tree) *big.Int {
	sizes := map[tree.ID]int{}
	for _, d := range t.DataIDs() {
		sizes[t.Parent(d)]++
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	out := factorial(total)
	for _, n := range sizes {
		out.Div(out, factorial(n))
	}
	return out
}

func factorial(n int) *big.Int {
	return new(big.Int).MulRange(1, int64(n))
}
