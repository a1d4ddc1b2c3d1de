package datatree

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/bitset"
	"repro/internal/pool"
	"repro/internal/pqueue"
	"repro/internal/tree"
)

// This file keeps the data-tree search as it was before it moved onto
// internal/bestfirst: its own dominance table, queue loop and expansion
// limit, its path bookkeeping, and the recursive EnumeratePaths and
// BuildTree. The differential tests in engine_test.go hold the
// engine-driven code to it result for result and counter for counter.

// candidates returns the children of a data-tree node in a fresh slice —
// used by the tree-view walker, whose recursion holds the list across
// nested generations. Search and EnumeratePaths use candidatesInto with
// reused buffers.
func (c *ctx) oracleCandidates(used, covered bitset.Set) []tree.ID {
	return c.oracleCandidatesInto(nil, used, covered)
}

// candidatesInto appends the children of a data-tree node to dst: unused
// data nodes with no heavier unused sibling (Lemma 3), restricted to the
// single heaviest remaining node once every index node is covered
// (Property 1).
func (c *ctx) oracleCandidatesInto(dst []tree.ID, used, covered bitset.Set) []tree.ID {
	if c.opt.Property1 && c.indexSet.SubsetOf(covered) {
		for _, d := range c.dataDesc {
			if !used.Contains(int(d)) {
				return append(dst, d)
			}
		}
		return dst
	}
	for _, d := range c.dataIDs {
		if used.Contains(int(d)) {
			continue
		}
		if c.oracleHeavierSiblingUnused(d, used) {
			continue
		}
		dst = append(dst, d)
	}
	return dst
}

// nanc returns Ancestor(d) − covered as a root-down ordered slice.
func (c *ctx) oracleNanc(d tree.ID, covered bitset.Set) []tree.ID {
	return c.nancInto(nil, d, covered)
}

// oracleHeavierSiblingUnused is the pre-engine Lemma 3 test, reading the
// tree directly.
func (c *ctx) oracleHeavierSiblingUnused(d tree.ID, used bitset.Set) bool {
	p := c.t.Parent(d)
	if p == tree.None {
		return false
	}
	w := c.t.Weight(d)
	for _, s := range c.t.Children(p) {
		if s == d || !c.t.IsData(s) || used.Contains(int(s)) {
			continue
		}
		if c.t.Weight(s) > w {
			return true
		}
	}
	return false
}

// pathInfo describes one placed data node along a path, newest first.
type pathInfo struct {
	d    tree.ID
	nanc []tree.ID // the ancestors emitted immediately before d
	prev *pathInfo
}

// keepAfter applies Property 4 (and, when enabled, the Corollary 2 block
// generalization) to candidate d following the path ending at last.
// covered must already include everything broadcast through last.
func (c *ctx) oracleKeepAfter(last *pathInfo, d tree.ID, covered bitset.Set) bool {
	if last == nil || !c.opt.Property4 {
		return true
	}
	nb := float64(c.nancCount(d, covered) + 1)
	wd := c.t.Weight(d)

	// One-and-one exchange (Property 4 proper).
	excl := 0
	for _, a := range last.nanc {
		if c.t.IsAncestor(a, d) {
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
		for m := last.prev; m != nil && blockLen < c.opt.MNExchange; m = m.prev {
			// The candidate's ancestors may only overlap the Nancestor of
			// the block's first member (they form a removable prefix
			// there); overlap with any later member breaks contiguity.
			overlapInner := false
			for cur := last; cur != m; cur = cur.prev {
				for _, a := range cur.nanc {
					if c.t.IsAncestor(a, d) {
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
				if c.t.IsAncestor(a, d) {
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

// oracleState is the pre-engine search state.
type oracleState struct {
	used    bitset.Set
	covered bitset.Set
	info    *pathInfo // newest placed data node (nil at root)
	pos     int       // broadcast length so far
	v       float64   // Σ W·T over placed data
	f       float64
}

// last returns the state's most recent data node, tree.None at the root.
func (s *oracleState) last() tree.ID {
	if s.info == nil {
		return tree.None
	}
	return s.info.d
}

// oracleSearch is the pre-engine Search.
func oracleSearch(t *tree.Tree, opt Options) (*Result, error) {
	c := newCtx(t, opt)
	res := &Result{}
	c.stats = &res.Stats

	dom := newOracleDomTable()

	// states recycles states skipped stale at pop time. Such a state is
	// referenced by nothing — it was never expanded (so its pathInfo is
	// nobody's prev) and the dominance entry for its key aliases a strictly
	// cheaper state — so its storage, pathInfo included, can serve a future
	// state. The root is built outside the pool so pooled states always
	// carry a non-nil pathInfo to reuse.
	states := pool.New(func() *oracleState {
		return &oracleState{used: bitset.New(c.n), covered: bitset.New(c.n), info: &pathInfo{}}
	})

	var candBuf []tree.ID
	q := pqueue.New(func(a, b *oracleState) bool { return a.f < b.f })
	push := func(s *oracleState, h uint64, e *oracleDomEntry) {
		dom.record(e, h, s.used, s.last(), s.v)
		res.Stats.Generated++
		q.Push(s)
	}

	root := &oracleState{used: bitset.New(c.n), covered: bitset.New(c.n)}
	root.f = c.bound(root.used, 0)
	push(root, oracleDomHash(root.used, tree.None), nil)

	for q.Len() > 0 {
		cur := q.Pop()
		h := oracleDomHash(cur.used, cur.last())
		if e := dom.lookup(h, cur.used, cur.last()); e != nil && e.v < cur.v {
			res.Stats.DomStale++
			if cur.info != nil {
				states.Put(cur)
			}
			continue
		}
		if cur.used.Len() == t.NumData() {
			res.Stats.PeakQueue = q.Peak()
			res.Stats.HashCollisions = dom.collisions
			return c.oracleFinish(cur, res)
		}
		if opt.MaxExpanded > 0 && res.Stats.Expanded >= opt.MaxExpanded {
			return nil, fmt.Errorf("%w (limit %d)", ErrExpansionLimit, opt.MaxExpanded)
		}
		res.Stats.Expanded++
		cand := c.oracleCandidatesInto(candBuf[:0], cur.used, cur.covered)
		candBuf = cand
		for _, d := range cand {
			if !c.oracleKeepAfter(cur.info, d, cur.covered) {
				res.Stats.RulePruned++
				continue
			}
			next := states.Get()
			next.used.Copy(cur.used)
			next.used.Add(int(d))
			ni := next.info
			ni.d = d
			ni.nanc = c.nancInto(ni.nanc[:0], d, cur.covered)
			ni.prev = cur.info
			next.pos = cur.pos + len(ni.nanc) + 1
			next.v = cur.v + c.t.Weight(d)*float64(next.pos)
			nh := oracleDomHash(next.used, d)
			e := dom.lookup(nh, next.used, d)
			if e != nil && e.v <= next.v {
				res.Stats.DomPruned++
				states.Put(next)
				continue
			}
			next.covered.Copy(cur.covered)
			for _, a := range ni.nanc {
				next.covered.Add(int(a))
			}
			next.f = next.v + c.bound(next.used, next.pos)
			push(next, nh, e)
		}
	}
	return nil, fmt.Errorf("datatree: pruned data tree contains no complete path")
}

func (c *ctx) oracleFinish(s *oracleState, res *Result) (*Result, error) {
	var rev []tree.ID
	for info := s.info; info != nil; info = info.prev {
		rev = append(rev, info.d)
	}
	order := make([]tree.ID, len(rev))
	for i := range rev {
		order[len(rev)-1-i] = rev[i]
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

// oracleEnumeratePaths is the pre-engine EnumeratePaths.
func oracleEnumeratePaths(t *tree.Tree, opt Options, visit func(order []tree.ID, cost float64) bool) (uint64, error) {
	if t.NumData() == 0 {
		return 0, fmt.Errorf("datatree: tree has no data nodes")
	}
	c := newCtx(t, opt)
	used := bitset.New(c.n)
	covered := bitset.New(c.n)
	nd := t.NumData()
	order := make([]tree.ID, 0, nd)
	var count uint64
	stop := false

	// Per-depth scratch: the recursion holds each depth's candidate list,
	// nanc slice and pathInfo across the nested walk, so one buffer per
	// depth (reused across siblings) replaces a fresh allocation per node.
	candBufs := make([][]tree.ID, nd)
	nancBufs := make([][]tree.ID, nd)
	infos := make([]pathInfo, nd)

	var rec func(info *pathInfo, pos int, v float64)
	rec = func(info *pathInfo, pos int, v float64) {
		if stop {
			return
		}
		depth := len(order)
		if depth == nd {
			count++
			if visit != nil && !visit(order, v) {
				stop = true
			}
			return
		}
		cand := c.oracleCandidatesInto(candBufs[depth][:0], used, covered)
		candBufs[depth] = cand
		for _, d := range cand {
			if !c.oracleKeepAfter(info, d, covered) {
				continue
			}
			nanc := c.nancInto(nancBufs[depth][:0], d, covered)
			nancBufs[depth] = nanc
			used.Add(int(d))
			for _, a := range nanc {
				covered.Add(int(a))
			}
			order = append(order, d)
			newPos := pos + len(nanc) + 1
			ni := &infos[depth]
			ni.d, ni.nanc, ni.prev = d, nanc, info
			rec(ni, newPos, v+c.t.Weight(d)*float64(newPos))
			order = order[:len(order)-1]
			used.Remove(int(d))
			for _, a := range nanc {
				covered.Remove(int(a))
			}
			if stop {
				return
			}
		}
	}
	rec(nil, 0, 0)
	return count, nil
}

// oracleBuildTree is the pre-engine BuildTree.
func oracleBuildTree(t *tree.Tree, opt Options, maxNodes int) (*Node, int, error) {
	if t.NumData() == 0 {
		return nil, 0, fmt.Errorf("datatree: tree has no data nodes")
	}
	c := newCtx(t, opt)
	used := bitset.New(c.n)
	covered := bitset.New(c.n)
	root := &Node{Data: tree.None}
	count := 1

	var expand func(n *Node, info *pathInfo, pos int) error
	expand = func(n *Node, info *pathInfo, pos int) error {
		if maxNodes > 0 && count > maxNodes {
			return fmt.Errorf("datatree: tree exceeds %d nodes", maxNodes)
		}
		if used.Len() == t.NumData() {
			return nil
		}
		for _, d := range c.oracleCandidates(used, covered) {
			if !c.oracleKeepAfter(info, d, covered) {
				continue
			}
			nanc := c.oracleNanc(d, covered)
			used.Add(int(d))
			for _, a := range nanc {
				covered.Add(int(a))
			}
			newPos := pos + len(nanc) + 1
			child := &Node{
				Data:      d,
				Nancestor: nanc,
				Cancestor: coveredIndexIDs(t, covered),
				Cost:      n.Cost + t.Weight(d)*float64(newPos),
			}
			count++
			n.Children = append(n.Children, child)
			err := expand(child, &pathInfo{d: d, nanc: nanc, prev: info}, newPos)
			used.Remove(int(d))
			for _, a := range nanc {
				covered.Remove(int(a))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := expand(root, nil, 0); err != nil {
		return nil, count, err
	}
	return root, count, nil
}

// oracleDomTable is the dominance map of the data-tree search: the cheapest
// accumulated cost V pushed per (used set, last data node) key. The covered
// set and broadcast position are functions of the used set, and the most
// recent data node participates because Property 4 conditions children on
// it. Like the topological-tree search, the table keys by a 64-bit hash and
// resolves collisions by chaining over the full key, so a lookup allocates
// nothing and an insert allocates only the entry.
type oracleDomTable struct {
	m map[uint64]*oracleDomEntry
	// collisions counts lookups that walked past an entry with the same
	// hash but a different full key.
	collisions int
}

// oracleDomEntry records the cheapest pushed state for one dominance key. The
// used set aliases that state's storage; the entry is rebound whenever a
// cheaper state replaces the incumbent, so the aliased storage is never
// recycled while referenced.
type oracleDomEntry struct {
	used bitset.Set
	last tree.ID
	v    float64
	next *oracleDomEntry
}

func newOracleDomTable() *oracleDomTable {
	return &oracleDomTable{m: make(map[uint64]*oracleDomEntry)}
}

// oracleDomHash folds the full dominance key into 64 bits. last is tree.None for
// the root state.
func oracleDomHash(used bitset.Set, last tree.ID) uint64 {
	h := used.Hash(0x2545f4914f6cdd1d)
	return bitset.HashWord(h, uint64(int64(last)))
}

// lookup returns the entry matching the full key, or nil.
func (t *oracleDomTable) lookup(h uint64, used bitset.Set, last tree.ID) *oracleDomEntry {
	for e := t.m[h]; e != nil; e = e.next {
		if e.last == last && e.used.Equal(used) {
			return e
		}
		t.collisions++
	}
	return nil
}

// record stores v as the cheapest cost for the key, rebinding the entry's
// aliased storage to the new incumbent. e is the entry lookup returned
// (nil to insert fresh).
func (t *oracleDomTable) record(e *oracleDomEntry, h uint64, used bitset.Set, last tree.ID, v float64) {
	if e != nil {
		e.used = used
		e.v = v
		return
	}
	t.m[h] = &oracleDomEntry{used: used, last: last, v: v, next: t.m[h]}
}
