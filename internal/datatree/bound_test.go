package datatree

import (
	"math/bits"
	"testing"

	"repro/internal/bestfirst"
	"repro/internal/bitset"
	"repro/internal/searchstats"
	"repro/internal/tree"
)

// packedBound is the bound Search used before the release-time
// relaxation, kept as an oracle: the remaining data in descending weight
// at the immediately following positions, ignoring the index nodes they
// still need.
func (c *ctx) packedBound(used bitset.Set, pos int) float64 {
	var sum float64
	i := 1
	for _, d := range c.dataDesc {
		if used.Contains(int(d)) {
			continue
		}
		sum += c.t.Weight(d) * float64(pos+i)
		i++
	}
	return sum
}

// releaseBound is the release-time relaxation alone, the bound Search
// used before the index-capacity term, kept as an oracle: each unused data
// node is released one position after its last uncovered ancestor, and
// each position from pos+1 takes the heaviest released node not yet taken.
func (c *ctx) releaseBound(used, covered bitset.Set, pos int) float64 {
	var rel []int // release position of each unused node, heaviest first; 0 once taken
	var w []float64
	for _, d := range c.dataDesc {
		if used.Contains(int(d)) {
			continue
		}
		rel, w = append(rel, pos+1+c.nancCount(d, covered)), append(w, c.t.Weight(d))
	}
	var sum float64
	for at, left := pos+1, len(rel); left > 0; at++ {
		for i := range rel {
			if rel[i] > 0 && rel[i] <= at {
				sum += w[i] * float64(at)
				rel[i], left = 0, left-1
				break
			}
		}
	}
	return sum
}

// releaseSpace is the data tree searched with the release-time bound
// alone.
type releaseSpace struct{ *ctx }

func (r releaseSpace) Bound(s *state) float64 { return r.releaseBound(s.used, s.covered, s.pos) }

// searchRelease is Search with the release-time bound alone.
func searchRelease(t *tree.Tree, opt Options) (*Result, error) {
	c := newCtx(t, opt)
	res := &Result{}
	c.stats = &res.Stats
	goal, ok, err := bestfirst.Search[*state](releaseSpace{c}, c.New(), opt.MaxExpanded, &res.Stats)
	if err != nil || !ok {
		return nil, err
	}
	return c.finish(goal, res)
}

// checkedSpace calls check on every state the search bounds.
type checkedSpace struct {
	*ctx
	check func(s *state)
}

func (c checkedSpace) Bound(s *state) float64 { c.check(s); return c.ctx.Bound(s) }

// completion is the exact cost to go from every used set of a tree of at
// most 64 nodes, by exhaustive recursion over every data order. cost(m)
// is the least Σ W·(position − pos) over the completions of used set m;
// from a state at position pos the remaining wait is cost(m) + pos·rest(m).
type completion struct {
	c    *ctx
	memo map[uint64]float64
}

func (o *completion) rest(m uint64) float64 {
	var w float64
	for _, d := range o.c.dataIDs {
		if m&(1<<d) == 0 {
			w += o.c.t.Weight(d)
		}
	}
	return w
}

func (o *completion) cost(m uint64) float64 {
	if bits.OnesCount64(m) == len(o.c.dataIDs) {
		return 0
	}
	if v, ok := o.memo[m]; ok {
		return v
	}
	var covered uint64
	for _, d := range o.c.dataIDs {
		if m&(1<<d) != 0 {
			for _, a := range o.c.ancList[d] {
				covered |= 1 << a
			}
		}
	}
	best := -1.0
	for _, d := range o.c.dataIDs {
		if m&(1<<d) != 0 {
			continue
		}
		step := 1.0
		for _, a := range o.c.ancList[d] {
			if covered&(1<<a) == 0 {
				step++
			}
		}
		next := m | 1<<d
		v := step*(o.c.t.Weight(d)+o.rest(next)) + o.cost(next)
		if best < 0 || v < best {
			best = v
		}
	}
	o.memo[m] = best
	return best
}

// TestReleaseBoundAdmissible checks U(X) on every state the search bounds,
// over 1,000 seeded small trees under every Options combination: the
// packed bound ≤ the release-time bound alone ≤ Bound (with the
// index-capacity term) ≤ the exact cost to go, found by exhaustive search.
// On one state per tree, Bound allocates nothing.
func TestReleaseBoundAdmissible(t *testing.T) {
	states := 0
	for i, tr := range engineCorpus(t, 1000) {
		c := newCtx(tr, Options{})
		opt := &completion{c: c, memo: map[uint64]float64{}}
		allocs := false
		check := func(s *state) {
			states++
			m := mask(s.used, c.n)
			togo := opt.cost(m) + float64(s.pos)*opt.rest(m)
			packed, rel, u := c.packedBound(s.used, s.pos), c.releaseBound(s.used, s.covered, s.pos), c.Bound(s)
			if !(packed <= rel+1e-9 && rel <= u+1e-9 && u <= togo+1e-9) {
				t.Fatalf("tree %d pos %d used %v covered %v: packed %g release %g bound %g cost to go %g",
					i, s.pos, s.used, s.covered, packed, rel, u, togo)
			}
			if !allocs && u > 0 {
				allocs = true
				if n := testing.AllocsPerRun(10, func() { c.Bound(s) }); n != 0 {
					t.Fatalf("tree %d: Bound allocates %v times", i, n)
				}
			}
		}
		for _, o := range allOptions() {
			c.opt = o
			var st searchstats.Stats
			if _, ok, err := bestfirst.Search[*state](checkedSpace{c, check}, c.New(), 0, &st); err != nil || !ok {
				t.Fatalf("tree %d %+v: search failed: ok=%v err=%v", i, o, ok, err)
			}
		}
	}
	t.Logf("%d states checked", states)
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

// TestReleaseBoundSameOptimum holds Search to the search under the
// release-time bound alone, on the engine corpus under every Options
// combination: the optimum cost is equal on every tree, and each tree
// family expands no more states in sum. Single trees that expand more are
// logged.
func TestReleaseBoundSameOptimum(t *testing.T) {
	// engineCorpus cycles through Fig. 1 or m-ary, random, random and
	// Hu–Tucker shapes.
	family := []string{"fig1/m-ary", "random", "hu-tucker"}
	var bound, release [3]int
	for i, tr := range engineCorpus(t, 1000) {
		for _, opt := range allOptions() {
			got, err := Search(tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := searchRelease(tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Cost {
				t.Fatalf("tree %d %+v: cost %v, release-time bound alone %v", i, opt, got.Cost, want.Cost)
			}
			f := [4]int{0, 1, 1, 2}[i%4]
			bound[f] += got.Expanded
			release[f] += want.Expanded
			if got.Expanded > want.Expanded {
				t.Logf("tree %d (%s) %+v: %d expansions, release-time bound alone %d", i, family[f], opt, got.Expanded, want.Expanded)
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
