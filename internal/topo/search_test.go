package topo

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/tree"
	"repro/internal/workload"

	"repro/internal/stats"
)

// TestSearchCountersFig1 pins the search-effort counters of the paper's
// Fig. 1 tree under the consistent dominance rule (every pushed state
// recorded, push-skip on <=, pop-skip on strictly cheaper) and
// TightBound's bound: at k = 1, 14 expansions and 21 pushes reach the
// optimum, with a peak queue of 7. The release-time bound alone took 16,
// 24 and 8: at k = 1 the index-capacity term lifts the bound of states
// with index nodes still to air (the root state's from 316 to 355, see
// tree.TestReleaseBoundFig1), so fewer of them rank below the optimum's
// 391. The packed bound before it took 18 and 25, with one more dominated
// successor. The k = 2 counters do not move. A change in these numbers means the
// bound, the dominance or the pruning semantics moved.
func TestSearchCountersFig1(t *testing.T) {
	cases := []struct {
		k                            int
		generated, expanded          int
		rulePruned, domPruned, peakQ int
		cost                         float64
	}{
		{k: 1, generated: 21, expanded: 14, rulePruned: 0, domPruned: 2, peakQ: 7, cost: 391.0 / 70},
		{k: 2, generated: 6, expanded: 4, rulePruned: 1, domPruned: 0, peakQ: 2, cost: 264.0 / 70},
	}
	for _, c := range cases {
		res, err := Search(tree.Fig1(), Options{Channels: c.k, Prune: AllPrunes(), TightBound: true})
		if err != nil {
			t.Fatalf("k=%d: %v", c.k, err)
		}
		if res.Stats.Generated != c.generated || res.Stats.Expanded != c.expanded {
			t.Errorf("k=%d: generated/expanded = %d/%d, want %d/%d",
				c.k, res.Stats.Generated, res.Stats.Expanded, c.generated, c.expanded)
		}
		if res.Stats.RulePruned != c.rulePruned || res.Stats.DomPruned != c.domPruned {
			t.Errorf("k=%d: rulePruned/domPruned = %d/%d, want %d/%d",
				c.k, res.Stats.RulePruned, res.Stats.DomPruned, c.rulePruned, c.domPruned)
		}
		if res.Stats.PeakQueue != c.peakQ {
			t.Errorf("k=%d: peakQueue = %d, want %d", c.k, res.Stats.PeakQueue, c.peakQ)
		}
		if res.Expanded != res.Stats.Expanded || res.Generated != res.Stats.Generated {
			t.Errorf("k=%d: legacy counters diverge from Stats: %d/%d vs %+v",
				c.k, res.Expanded, res.Generated, res.Stats)
		}
		if diff := res.Cost - c.cost; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("k=%d: cost = %v, want %v", c.k, res.Cost, c.cost)
		}
	}
}

// TestMaxExpandedBoundary pins the off-by-one fix: a search that needs
// exactly E expansions succeeds with MaxExpanded = E and fails with E-1,
// and the failed search never exceeded its budget.
func TestMaxExpandedBoundary(t *testing.T) {
	tr := tree.Fig1()
	opt := Options{Channels: 2, Prune: AllPrunes(), TightBound: true}
	full, err := Search(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	e := full.Stats.Expanded
	if e < 2 {
		t.Fatalf("need a search with >= 2 expansions, got %d", e)
	}

	opt.MaxExpanded = e
	atLimit, err := Search(tr, opt)
	if err != nil {
		t.Fatalf("MaxExpanded=%d (exact need): %v", e, err)
	}
	if atLimit.Cost != full.Cost {
		t.Errorf("at-limit cost %v != unlimited cost %v", atLimit.Cost, full.Cost)
	}

	opt.MaxExpanded = e - 1
	if _, err := Search(tr, opt); err == nil {
		t.Fatalf("MaxExpanded=%d: want error, got success", e-1)
	} else if !errors.Is(err, ErrExpansionLimit) {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestQuickBinaryKeyMatchesExact cross-checks the binary dominance keys
// against the provably optimal search on 1000 random trees across every
// pruning configuration: whatever the key encoding, the searched optimum
// must equal the exact one.
func TestQuickBinaryKeyMatchesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-tree sweep")
	}
	prunes := []Prune{
		NoPrunes(),
		{Property1: true},
		{Property1: true, DataRank: true},
		AllPrunes(),
	}
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < 1000; i++ {
		nd := 4 + rng.Intn(3) // 4..6 data nodes keep the unpruned search affordable
		k := 1 + rng.Intn(3)
		tr, err := workload.Random(workload.RandomConfig{
			NumData: nd,
			Dist:    stats.Uniform{Lo: 1, Hi: 100},
		}, stats.NewRNG(rng.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Exact(tr, k)
		if err != nil {
			t.Fatalf("tree %d: exact: %v", i, err)
		}
		for _, p := range prunes {
			for _, tight := range []bool{false, true} {
				res, err := Search(tr, Options{Channels: k, Prune: p, TightBound: tight})
				if err != nil {
					t.Fatalf("tree %d k=%d prune=%+v: %v", i, k, p, err)
				}
				if diff := res.Cost - want.Cost; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("tree %d k=%d prune=%+v tight=%v: cost %v, exact %v",
						i, k, p, tight, res.Cost, want.Cost)
				}
			}
		}
	}
}
