package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/datatree"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/tree"
	"repro/internal/workload"
)

func TestSolveFig1AllStrategies(t *testing.T) {
	tr := tree.Fig1()
	opt1 := 391.0 / 70.0
	cases := []struct {
		name     string
		cfg      Config
		wantCost float64
		optimal  bool
	}{
		{"auto k=1", Config{Channels: 1}, opt1, true},
		{"exact k=1", Config{Channels: 1, Strategy: Exact}, opt1, true},
		{"datatree", Config{Channels: 1, Strategy: DataTree}, opt1, true},
		{"pruned k=2", Config{Channels: 2, Strategy: PrunedSearch}, 264.0 / 70.0, true},
		{"exact k=2", Config{Channels: 2, Strategy: Exact}, 264.0 / 70.0, true},
		{"sorting k=1", Config{Channels: 1, Strategy: Sorting}, opt1, false},
		{"sorting k=2", Config{Channels: 2, Strategy: Sorting}, 272.0 / 70.0, false},
		{"shrinking", Config{Channels: 1, Strategy: Shrinking, ShrinkTo: 3}, 423.0 / 70.0, false},
		{"partitioning", Config{Channels: 1, Strategy: Partitioning, ShrinkTo: 2}, opt1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sol, err := Solve(tr, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sol.Cost-c.wantCost) > 1e-9 {
				t.Fatalf("cost = %v, want %v", sol.Cost, c.wantCost)
			}
			if sol.Optimal != c.optimal {
				t.Fatalf("optimal = %v, want %v", sol.Optimal, c.optimal)
			}
			if err := sol.Alloc.Validate(); err != nil {
				t.Fatal(err)
			}
			if sol.Alloc.Tree() != tr {
				t.Fatal("solution must be over the input tree")
			}
		})
	}
}

// TestSolveLiveChannels: a live-channel subset solves at survivor width
// and echoes the subset, byte-identical to the directly shrunk solve.
func TestSolveLiveChannels(t *testing.T) {
	tr := tree.Fig1()
	sol, err := Solve(tr, Config{Channels: 3, LiveChannels: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(tr, Config{Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != want.Cost || sol.Used != want.Used || sol.Optimal != want.Optimal {
		t.Fatalf("live solve %+v, want shrunk solve %+v", sol, want)
	}
	if sol.Alloc.Channels() != 2 {
		t.Fatalf("live solve allocated %d channels, want 2", sol.Alloc.Channels())
	}
	if len(sol.Live) != 2 || sol.Live[0] != 1 || sol.Live[1] != 3 {
		t.Fatalf("Live = %v, want [1 3]", sol.Live)
	}
	if want.Live != nil {
		t.Fatalf("full-width solve recorded Live %v", want.Live)
	}

	for _, bad := range [][]int{{0, 1}, {2, 4}, {2, 1}, {1, 1}} {
		if _, err := Solve(tr, Config{Channels: 3, LiveChannels: bad}); err == nil {
			t.Errorf("LiveChannels %v accepted", bad)
		}
	}
}

func TestAutoUsesCorollary1(t *testing.T) {
	tr := tree.Fig1() // MaxLevelWidth 4
	sol, err := Solve(tr, Config{Channels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Optimal {
		t.Fatal("Corollary 1 solution should be optimal")
	}
	exact, err := topo.Exact(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Cost-exact.Cost) > 1e-9 {
		t.Fatalf("corollary path %v != exact %v", sol.Cost, exact.Cost)
	}
}

func TestAutoFallsBackToSortingOnLargeTrees(t *testing.T) {
	rng := stats.NewRNG(5)
	tr, err := workload.FullMAry(5, 3, stats.Normal{Mu: 100, Sigma: 20}, rng) // 25 leaves
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(tr, Config{Channels: 2, MaxExactData: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Used != Sorting || sol.Optimal {
		t.Fatalf("used = %v optimal = %v, want sorting heuristic", sol.Used, sol.Optimal)
	}
}

func TestSolveErrors(t *testing.T) {
	tr := tree.Fig1()
	if _, err := Solve(tr, Config{Channels: 0}); err == nil {
		t.Fatal("want error for k=0")
	}
	if _, err := Solve(tr, Config{Channels: 2, Strategy: DataTree}); err == nil {
		t.Fatal("want error for data-tree with k=2")
	}
	if _, err := Solve(tr, Config{Channels: 2, Strategy: Shrinking}); err == nil {
		t.Fatal("want error for shrinking with k=2")
	}
	if _, err := Solve(tr, Config{Channels: 2, Strategy: Partitioning}); err == nil {
		t.Fatal("want error for partitioning with k=2")
	}
	if _, err := Solve(tr, Config{Channels: 1, Strategy: Strategy(99)}); err == nil {
		t.Fatal("want error for unknown strategy")
	}
	if _, err := Solve(tr, Config{Channels: 1, Strategy: Exact, MaxExpanded: 1}); err == nil {
		t.Fatal("want error when expansion cap binds")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, s := range []Strategy{Auto, Exact, PrunedSearch, DataTree, Sorting, Shrinking, Partitioning} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Fatal("want error for unknown name")
	}
	if Strategy(99).String() == "" {
		t.Fatal("unknown strategy should still render")
	}
}

// Property: Auto is optimal whenever it claims to be, and all strategies
// return feasible allocations with costs ordered heuristic >= optimal.
func TestQuickSolveConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		tr, err := workload.Random(workload.RandomConfig{
			NumData: 1 + rng.Intn(8),
			Dist:    stats.Uniform{Lo: 1, Hi: 100},
		}, rng)
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(3)
		auto, err := Solve(tr, Config{Channels: k})
		if err != nil {
			return false
		}
		if err := auto.Alloc.Validate(); err != nil {
			return false
		}
		exact, err := topo.Exact(tr, k)
		if err != nil {
			return false
		}
		if auto.Optimal && math.Abs(auto.Cost-exact.Cost) > 1e-9 {
			t.Logf("seed=%d k=%d tree=%s: auto %v != exact %v", seed, k, tr, auto.Cost, exact.Cost)
			return false
		}
		sorting, err := Solve(tr, Config{Channels: k, Strategy: Sorting})
		if err != nil {
			return false
		}
		if sorting.Cost < exact.Cost-1e-9 {
			t.Logf("seed=%d: sorting beat exact", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolveAutoFig1(b *testing.B) {
	tr := tree.Fig1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(tr, Config{Channels: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSolveWithPolish: the polished sorting heuristic is never worse than
// plain sorting and stays feasible.
func TestSolveWithPolish(t *testing.T) {
	rng := stats.NewRNG(11)
	tr, err := workload.FullMAry(5, 3, stats.Normal{Mu: 100, Sigma: 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Solve(tr, Config{Channels: 2, Strategy: Sorting})
	if err != nil {
		t.Fatal(err)
	}
	polished, err := Solve(tr, Config{Channels: 2, Strategy: Sorting, Polish: true})
	if err != nil {
		t.Fatal(err)
	}
	if polished.Cost > plain.Cost+1e-9 {
		t.Fatalf("polish worsened sorting: %g > %g", polished.Cost, plain.Cost)
	}
	if err := polished.Alloc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLowerBoundFig1: the bound is valid and reasonably tight on the
// worked example.
func TestLowerBoundFig1(t *testing.T) {
	tr := tree.Fig1()
	for k := 1; k <= 4; k++ {
		lb, err := LowerBound(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := topo.Exact(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		if lb > opt.Cost+1e-9 {
			t.Fatalf("k=%d: bound %g exceeds optimum %g", k, lb, opt.Cost)
		}
		if lb < 1 {
			t.Fatalf("k=%d: bound %g below 1 slot", k, lb)
		}
	}
	// Corollary 1 regime: the depth bound is tight.
	lb, err := LowerBound(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := topo.Exact(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lb-opt.Cost) > 1e-9 {
		t.Fatalf("wide-channel bound %g not tight against %g", lb, opt.Cost)
	}
	if _, err := LowerBound(tr, 0); err == nil {
		t.Fatal("want error for k=0")
	}
}

// Property: LowerBound never exceeds the exact optimum.
func TestQuickLowerBoundValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		tr, err := workload.Random(workload.RandomConfig{
			NumData: 1 + rng.Intn(8),
			Dist:    stats.Uniform{Lo: 1, Hi: 100},
		}, rng)
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(3)
		lb, err := LowerBound(tr, k)
		if err != nil {
			return false
		}
		opt, err := topo.Exact(tr, k)
		if err != nil {
			return false
		}
		if lb > opt.Cost+1e-9 {
			t.Logf("seed=%d k=%d tree=%s: bound %g > optimum %g", seed, k, tr, lb, opt.Cost)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestFallbackOnLimit: when the expansion cap trips and FallbackOnLimit
// is set, Solve degrades to the sorting heuristic instead of failing,
// recording the limit error and reporting the result non-optimal.
func TestFallbackOnLimit(t *testing.T) {
	tr := tree.Fig1()
	for _, cfg := range []Config{
		{Channels: 1, Strategy: Exact, MaxExpanded: 1, FallbackOnLimit: true},
		{Channels: 1, Strategy: DataTree, MaxExpanded: 1, FallbackOnLimit: true},
		{Channels: 2, Strategy: PrunedSearch, MaxExpanded: 1, FallbackOnLimit: true},
		{Channels: 2, MaxExpanded: 1, FallbackOnLimit: true}, // Auto → Exact → fallback
	} {
		sol, err := Solve(tr, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if sol.Optimal {
			t.Fatalf("%+v: fallback solution claims optimality", cfg)
		}
		if sol.Used != Sorting {
			t.Fatalf("%+v: used %v, want sorting fallback", cfg, sol.Used)
		}
		if sol.LimitErr == nil {
			t.Fatalf("%+v: limit error not recorded", cfg)
		}
		if !errors.Is(sol.LimitErr, topo.ErrExpansionLimit) && !errors.Is(sol.LimitErr, datatree.ErrExpansionLimit) {
			t.Fatalf("%+v: LimitErr = %v, want an expansion-limit sentinel", cfg, sol.LimitErr)
		}
		if err := sol.Alloc.Validate(); err != nil {
			t.Fatal(err)
		}
		// The fallback must match a direct heuristic run.
		want, err := Solve(tr, Config{Channels: cfg.Channels, Strategy: Sorting})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sol.Cost-want.Cost) > 1e-9 {
			t.Fatalf("%+v: fallback cost %v, direct sorting cost %v", cfg, sol.Cost, want.Cost)
		}
	}
}

// TestFallbackOffStillErrors: without the flag the limit remains a hard
// error, and non-limit errors pass through even with the flag set.
func TestFallbackOffStillErrors(t *testing.T) {
	tr := tree.Fig1()
	_, err := Solve(tr, Config{Channels: 1, Strategy: Exact, MaxExpanded: 1})
	if !errors.Is(err, datatree.ErrExpansionLimit) {
		t.Fatalf("want wrapped datatree limit error, got %v", err)
	}
	_, err2 := Solve(tr, Config{Channels: 2, Strategy: PrunedSearch, MaxExpanded: 1})
	if !errors.Is(err2, topo.ErrExpansionLimit) {
		t.Fatalf("want wrapped topo limit error, got %v", err2)
	}
	// Both searches run on one engine and share its sentinel.
	if !errors.Is(err, topo.ErrExpansionLimit) || !errors.Is(err2, datatree.ErrExpansionLimit) {
		t.Fatalf("limit sentinels differ: %v / %v", err, err2)
	}
	// A clean solve with the flag set records no limit error.
	sol, err := Solve(tr, Config{Channels: 1, Strategy: Exact, FallbackOnLimit: true})
	if err != nil || sol.LimitErr != nil || !sol.Optimal {
		t.Fatalf("clean solve: err=%v limitErr=%v optimal=%v", err, sol.LimitErr, sol.Optimal)
	}
}
