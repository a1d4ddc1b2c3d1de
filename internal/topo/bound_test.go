package topo

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/bestfirst"
	"repro/internal/bitset"
	"repro/internal/searchstats"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

// packedBound is the bound TightBound selected before the release-time
// relaxation, kept as an oracle: the remaining data, heaviest first, k per
// slot from slot depth+1, each ignoring its unplaced ancestors.
func (g *gen) packedBound(placed bitset.Set, depth int) float64 {
	var sum float64
	i := 0
	for _, id := range g.dataDesc {
		if placed.Contains(int(id)) {
			continue
		}
		sum += g.t.Weight(id) * float64(depth+1+i/g.k)
		i++
	}
	return sum
}

// packedSpace is the topological tree searched with the packed bound.
type packedSpace struct{ *gen }

func (p packedSpace) Bound(s *state) float64 { return p.packedBound(s.placed, s.depth) }

// searchPacked is Search with TightBound's packed bound in place of the
// release-time bound.
func searchPacked(t *tree.Tree, opt Options) (*Result, error) {
	opt.TightBound = true
	g, err := newGen(t, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	g.stats = &res.Stats
	goal, ok, err := bestfirst.Search[*state](packedSpace{g}, g.root(), opt.MaxExpanded, &res.Stats)
	if err != nil || !ok {
		return nil, err
	}
	return finish(g, goal, res)
}

// releaseBound is the release-time relaxation alone, the bound TightBound
// selected before the index-capacity term, kept as an oracle: each
// unplaced data node is released one slot after its last unplaced
// ancestor, and each slot from depth+1 takes the k heaviest released
// nodes not yet taken.
func (g *gen) releaseBound(placed bitset.Set, depth int) float64 {
	var rel []int // release slot of each unplaced node, heaviest first; 0 once taken
	var w []float64
	for _, d := range g.dataDesc {
		if placed.Contains(int(d)) {
			continue
		}
		r := depth + 1
		for p := g.t.Parent(d); p != tree.None && !placed.Contains(int(p)); p = g.t.Parent(p) {
			r++
		}
		rel, w = append(rel, r), append(w, g.t.Weight(d))
	}
	var sum float64
	for slot, left := depth+1, len(rel); left > 0; slot++ {
		for i, n := 0, 0; i < len(rel) && n < g.k; i++ {
			if rel[i] > 0 && rel[i] <= slot {
				sum += w[i] * float64(slot)
				rel[i], n, left = 0, n+1, left-1
			}
		}
	}
	return sum
}

// releaseSpace is the topological tree searched with the release-time
// bound alone.
type releaseSpace struct{ *gen }

func (r releaseSpace) Bound(s *state) float64 { return r.releaseBound(s.placed, s.depth) }

// searchRelease is Search with the release-time bound alone in place of
// TightBound's.
func searchRelease(t *tree.Tree, opt Options) (*Result, error) {
	opt.TightBound = true
	g, err := newGen(t, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	g.stats = &res.Stats
	goal, ok, err := bestfirst.Search[*state](releaseSpace{g}, g.root(), opt.MaxExpanded, &res.Stats)
	if err != nil || !ok {
		return nil, err
	}
	return finish(g, goal, res)
}

// checkedSpace calls check on every state the search bounds.
type checkedSpace struct {
	*gen
	check func(s *state)
}

func (c checkedSpace) Bound(s *state) float64 { c.check(s); return c.gen.Bound(s) }

// completion is the exact cost to go from every reachable placed set of a
// tree of at most 64 nodes, by exhaustive recursion over Algorithm 1's
// successors (every min(k, |S|)-subset of the available nodes S). cost(m)
// is the least Σ W·(slot − depth) over the completions of placed set m;
// from a state at depth d the remaining wait is cost(m) + d·rest(m).
type completion struct {
	g    *gen
	memo map[uint64]float64
	buf  []tree.ID
}

func (c *completion) rest(m uint64) float64 {
	var w float64
	for _, d := range c.g.dataDesc {
		if m&(1<<d) == 0 {
			w += c.g.t.Weight(d)
		}
	}
	return w
}

func (c *completion) cost(m uint64) float64 {
	if bits.OnesCount64(m) == c.g.n {
		return 0
	}
	if v, ok := c.memo[m]; ok {
		return v
	}
	start := len(c.buf)
	for i := 0; i < c.g.n; i++ {
		if p := c.g.t.Parent(tree.ID(i)); m&(1<<i) == 0 && (p == tree.None || m&(1<<p) != 0) {
			c.buf = append(c.buf, tree.ID(i))
		}
	}
	avail := c.buf[start:]
	best := -1.0
	var pick func(from int, comp uint64, size int)
	pick = func(from int, comp uint64, size int) {
		if size == min(c.g.k, len(avail)) {
			v := c.rest(m|comp) + c.cost(m|comp)
			for _, id := range avail {
				if comp&(1<<id) != 0 && c.g.t.IsData(id) {
					v += c.g.t.Weight(id)
				}
			}
			if best < 0 || v < best {
				best = v
			}
			return
		}
		for i := from; i < len(avail); i++ {
			pick(i+1, comp|1<<avail[i], size+1)
		}
	}
	pick(0, 0, 0)
	c.buf = c.buf[:start]
	c.memo[m] = best
	return best
}

func mask(s bitset.Set, n int) uint64 {
	var m uint64
	for i := 0; i < n; i++ {
		if s.Contains(i) {
			m |= 1 << i
		}
	}
	return m
}

// TestReleaseBoundAdmissible checks U(X) on every state the search bounds,
// over 1,000 seeded small trees at k = 1–4 under Exact's and all prunes:
// the paper's U(X) ≤ the packed bound ≤ the release-time bound alone ≤
// TightBound's (with the index-capacity term) ≤ the exact cost to go,
// found by exhaustive search. On one state per tree and k, Bound allocates
// nothing.
func TestReleaseBoundAdmissible(t *testing.T) {
	trees, states := 0, 0
	for i, tr := range engineCorpus(t, 1300) {
		if trees == 1000 {
			break
		}
		if tr.NumNodes() > 15 {
			continue
		}
		trees++
		for k := 1; k <= 4; k++ {
			for _, p := range []Prune{{Property1: true, DataRank: true}, AllPrunes()} {
				g, err := newGen(tr, Options{Channels: k, Prune: p, TightBound: true})
				if err != nil {
					t.Fatal(err)
				}
				loose, err := newGen(tr, Options{Channels: k, Prune: p})
				if err != nil {
					t.Fatal(err)
				}
				opt := &completion{g: g, memo: map[uint64]float64{}}
				allocs := false
				check := func(s *state) {
					states++
					m := mask(s.placed, g.n)
					togo := opt.cost(m) + float64(s.depth)*opt.rest(m)
					u0, packed := loose.Bound(s), g.packedBound(s.placed, s.depth)
					rel, u := g.releaseBound(s.placed, s.depth), g.Bound(s)
					if !(u0 <= packed+1e-9 && packed <= rel+1e-9 && rel <= u+1e-9 && u <= togo+1e-9) {
						t.Fatalf("tree %d k=%d prune=%+v depth %d placed %v: paper %g packed %g release %g bound %g cost to go %g",
							i, k, p, s.depth, s.placed, u0, packed, rel, u, togo)
					}
					if !allocs && u > 0 {
						allocs = true
						if n := testing.AllocsPerRun(10, func() { g.Bound(s) }); n != 0 {
							t.Fatalf("tree %d k=%d: Bound allocates %v times", i, k, n)
						}
					}
				}
				var st searchstats.Stats
				if _, ok, err := bestfirst.Search[*state](checkedSpace{g, check}, g.root(), 0, &st); err != nil || !ok {
					t.Fatalf("tree %d k=%d: search failed: ok=%v err=%v", i, k, ok, err)
				}
			}
		}
	}
	if trees < 1000 {
		t.Fatalf("only %d trees small enough for the exhaustive check", trees)
	}
	t.Logf("%d trees, %d states checked", trees, states)
}

// TestReleaseBoundSameOptimum holds the search under TightBound's bound to
// the one under the release-time bound alone, on the engine corpus, k =
// 1–4, under Exact's and all prunes: the optimum cost is equal on every
// tree, and each tree family expands no more states in sum. Single trees
// that expand more are logged.
func TestReleaseBoundSameOptimum(t *testing.T) {
	// engineCorpus cycles through Fig. 1 or m-ary, random, random and
	// Hu–Tucker shapes.
	family := []string{"fig1/m-ary", "random", "hu-tucker"}
	var bound, release [3]int
	for i, tr := range engineCorpus(t, 1000) {
		for k := 1; k <= 4; k++ {
			for _, p := range []Prune{{Property1: true, DataRank: true}, AllPrunes()} {
				opt := Options{Channels: k, Prune: p, TightBound: true}
				got, err := Search(tr, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := searchRelease(tr, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != want.Cost {
					t.Fatalf("tree %d k=%d prune=%+v: cost %v, release-time bound alone %v", i, k, p, got.Cost, want.Cost)
				}
				f := [4]int{0, 1, 1, 2}[i%4]
				bound[f] += got.Expanded
				release[f] += want.Expanded
				if got.Expanded > want.Expanded {
					t.Logf("tree %d (%s) k=%d prune=%+v: %d expansions, release-time bound alone %d",
						i, family[f], k, p, got.Expanded, want.Expanded)
				}
			}
		}
	}
	for f, name := range family {
		t.Logf("%s: expanded %d, release-time bound alone %d", name, bound[f], release[f])
		if bound[f] > release[f] {
			t.Errorf("%s: the bound expands %d states, the release-time bound alone %d", name, bound[f], release[f])
		}
	}
}

// TestQuickBoundsAdmissible verifies the completion bounds directly: for
// random reachable prefixes of random trees, neither the paper's U(X) nor
// TightBound's ever exceeds the true optimal completion cost, and
// TightBound's dominates the release-time bound alone, which dominates the
// packed bound, which dominates the paper's.
func TestQuickBoundsAdmissible(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		tr, err := workload.Random(workload.RandomConfig{
			NumData: 2 + rng.Intn(6),
			Dist:    stats.Uniform{Lo: 1, Hi: 50},
		}, rng)
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(2)
		g, err := newGen(tr, Options{Channels: k, TightBound: true})
		if err != nil {
			return false
		}
		loose, err := newGen(tr, Options{Channels: k})
		if err != nil {
			return false
		}
		// Build a random reachable prefix by walking random successors.
		placed := bitset.New(g.n)
		placed.Add(int(tr.Root()))
		depth := 1
		v := g.compoundCost([]tree.ID{tr.Root()}, 1)
		prev := []tree.ID{tr.Root()}
		steps := rng.Intn(tr.NumNodes())
		for i := 0; i < steps; i++ {
			succ := g.successors(placed, prev)
			if len(succ) == 0 {
				break
			}
			comp := succ[rng.Intn(len(succ))]
			for _, id := range comp {
				placed.Add(int(id))
			}
			depth++
			v += g.compoundCost(comp, depth)
			prev = comp
		}
		// True optimal completion: minimum over unpruned enumerations
		// from this prefix, computed via a fresh exact search on the
		// remaining problem. Easiest correct oracle: enumerate.
		best := -1.0
		var rec func(pl bitset.Set, d int, cost float64, pr []tree.ID)
		rec = func(pl bitset.Set, d int, cost float64, pr []tree.ID) {
			if pl.Equal(g.all) {
				if best < 0 || cost < best {
					best = cost
				}
				return
			}
			for _, comp := range g.successors(pl, pr) {
				np := pl.Clone()
				for _, id := range comp {
					np.Add(int(id))
				}
				rec(np, d+1, cost+g.compoundCost(comp, d+1), comp)
			}
		}
		rec(placed.Clone(), depth, 0, prev)
		if best < 0 {
			return true // dead prefix (cannot happen with NoPrunes)
		}
		u0 := loose.bound(placed, depth)
		packed, rel := g.packedBound(placed, depth), g.releaseBound(placed, depth)
		u := g.bound(placed, depth)
		if u0 > best+1e-9 || u > best+1e-9 {
			t.Logf("seed=%d: bounds paper=%g tight=%g exceed true completion %g",
				seed, u0, u, best)
			return false
		}
		if packed < u0-1e-9 || rel < packed-1e-9 || u < rel-1e-9 {
			t.Logf("seed=%d: paper %g, packed %g, release %g, tight %g out of order", seed, u0, packed, rel, u)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
