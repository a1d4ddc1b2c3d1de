package datatree

import (
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/tree"
	"repro/internal/workload"
)

func ids(t *testing.T, tr *tree.Tree, labels ...string) []tree.ID {
	t.Helper()
	out := make([]tree.ID, len(labels))
	for i, l := range labels {
		id := tr.FindLabel(l)
		if id == tree.None {
			t.Fatalf("label %q not found", l)
		}
		out[i] = id
	}
	return out
}

func labelsJoin(tr *tree.Tree, seq []tree.ID) string {
	return strings.Join(tr.LabelOf(seq), "")
}

// TestBroadcastGenerationFig12 reproduces the paper's worked example: the
// leftmost data-tree path A,B,C,E,D of Fig. 12 generates the broadcast
// 1 2 A B 3 4 C E D.
func TestBroadcastGenerationFig12(t *testing.T) {
	tr := tree.Fig1()
	seq, err := BroadcastFromDataOrder(tr, ids(t, tr, "A", "B", "C", "E", "D"))
	if err != nil {
		t.Fatal(err)
	}
	if got := labelsJoin(tr, seq); got != "12AB34CED" {
		t.Fatalf("broadcast = %s, want 12AB34CED", got)
	}
}

func TestBroadcastFromDataOrderErrors(t *testing.T) {
	tr := tree.Fig1()
	if _, err := BroadcastFromDataOrder(tr, ids(t, tr, "A", "1")); err == nil {
		t.Fatal("want error for index node in order")
	}
	if _, err := BroadcastFromDataOrder(tr, ids(t, tr, "A", "A")); err == nil {
		t.Fatal("want error for duplicate")
	}
	if _, err := BroadcastFromDataOrder(tr, ids(t, tr, "A", "B")); err == nil {
		t.Fatal("want error for incomplete order")
	}
}

// TestProperty4PrunesCE reproduces the paper's Property 4 example: after
// the prefix A, C the candidate E is pruned because the exchangeable
// subsequences are 4C and E, and 1·15 ≥ 2·18 fails.
func TestProperty4PrunesCE(t *testing.T) {
	tr := tree.Fig1()
	c := newCtx(tr, Options{Property4: true})
	covered := tr.AncestorSet(tr.FindLabel("A")) // {1,2} after placing A
	infoA := &pathInfo{d: tr.FindLabel("A"), nanc: ids(t, tr, "1", "2")}
	// Place C: Nancestor(C) = {3,4}.
	nancC := c.nanc(tr.FindLabel("C"), covered)
	if got := labelsJoin(tr, nancC); got != "34" {
		t.Fatalf("Nancestor(C) = %s, want 34", got)
	}
	for _, a := range nancC {
		covered.Add(int(a))
	}
	infoC := &pathInfo{d: tr.FindLabel("C"), nanc: nancC, prev: infoA}
	if c.keepAfter(infoC, tr.FindLabel("E"), covered) {
		t.Fatal("E after A,C should be pruned by Property 4")
	}
	// But D after A,C survives: Nanc(D)={}, nb=1, na=|{3,4}-{1,3,4}|+1...
	// exchangeable subsequences are 34C vs D: 1·15 ≥ 3·7 holds.
	if !c.keepAfter(infoC, tr.FindLabel("D"), covered) {
		t.Fatal("D after A,C should survive Property 4")
	}
}

// TestFinalDataTreePaths: the paper's prose says "only three paths remain"
// in the example's final data tree, but that count refers to the *partial*
// tree drawn in Fig. 12. Applying Property 4 exactly as stated (hand
// derivation in EXPERIMENTS.md) leaves a single surviving complete path —
// the optimum A,B,E,C,D — consistent with Table 1's m=2 row, which also
// reports 1 path after Properties 1, 2 and 4. We pin the hand-derived
// count and that the survivor is the optimum.
func TestFinalDataTreePaths(t *testing.T) {
	tr := tree.Fig1()
	var orders []string
	count, err := EnumeratePaths(tr, AllOptions(), func(order []tree.ID, _ float64) bool {
		orders = append(orders, labelsJoin(tr, order))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 || orders[0] != "ABECD" {
		t.Fatalf("final data tree paths = %d (%v), want the single optimum ABECD", count, orders)
	}
	// Property 4 alone (without Property 1) also leaves only the optimum.
	count4, _, err := CountPaths(tr, Options{Property4: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if count4 != 1 {
		t.Fatalf("Property-4-only paths = %d, want 1", count4)
	}
}

// TestBaseDataTreeCountFig1: groups {A,B}, {E}, {C,D} give a base tree of
// 5!/(2!·1!·2!) = 30 paths, matching the closed form.
func TestBaseDataTreeCountFig1(t *testing.T) {
	tr := tree.Fig1()
	want := BasePathCount(tr)
	if want.Cmp(big.NewInt(30)) != 0 {
		t.Fatalf("BasePathCount = %s, want 30", want)
	}
	count, _, err := CountPaths(tr, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if count != 30 {
		t.Fatalf("enumerated base paths = %d, want 30", count)
	}
}

// TestSearchFig1Optimal: the data-tree search must find the 1-channel
// optimum 391/70 with the broadcast 1 2 A B 3 E 4 C D.
func TestSearchFig1Optimal(t *testing.T) {
	tr := tree.Fig1()
	res, err := Search(tr, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := 391.0 / 70.0
	if math.Abs(res.Cost-want) > 1e-9 {
		t.Fatalf("Cost = %v, want %v", res.Cost, want)
	}
	if got := labelsJoin(tr, res.Sequence); got != "12AB3E4CD" {
		t.Fatalf("sequence = %s, want 12AB3E4CD", got)
	}
	if err := res.Alloc.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := labelsJoin(tr, res.Order); got != "ABECD" {
		t.Fatalf("order = %s, want ABECD", got)
	}
}

// TestPruningMonotone: adding rules never increases the path count.
func TestPruningMonotone(t *testing.T) {
	tr := tree.Fig1()
	base, _, err := CountPaths(tr, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p1, _, err := CountPaths(tr, Options{Property1: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p14, _, err := CountPaths(tr, Options{Property1: true, Property4: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p14m, _, err := CountPaths(tr, Options{Property1: true, Property4: true, MNExchange: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(base >= p1 && p1 >= p14 && p14 >= p14m) {
		t.Fatalf("counts not monotone: base=%d p1=%d p14=%d p14m=%d", base, p1, p14, p14m)
	}
	if p14m < 1 {
		t.Fatal("pruning removed every path")
	}
}

// TestTable1RowM2: for a depth-3 full binary tree the base tree has
// (4)!/(2!)² = 6 paths exactly, and the pruned trees are no larger
// (the paper's single random draw reported 6 / 4 / 1).
func TestTable1RowM2(t *testing.T) {
	rng := stats.NewRNG(7)
	tr, err := workload.FullMAry(2, 3, stats.Uniform{Lo: 1, Hi: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := BasePathCount(tr); got.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("BasePathCount = %s, want 6", got)
	}
	base, _, err := CountPaths(tr, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base != 6 {
		t.Fatalf("base count = %d, want 6", base)
	}
	p12, _, err := CountPaths(tr, Options{Property1: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p124, _, err := CountPaths(tr, AllOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p12 > base || p124 > p12 || p124 < 1 {
		t.Fatalf("pruning not effective: %d / %d / %d", base, p12, p124)
	}
}

func TestCountPathsLimit(t *testing.T) {
	tr := tree.Fig1()
	count, exceeded, err := CountPaths(tr, Options{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !exceeded || count != 5 {
		t.Fatalf("count=%d exceeded=%v, want 5/true", count, exceeded)
	}
}

func TestSearchExpansionLimit(t *testing.T) {
	tr := tree.Fig1()
	if _, err := Search(tr, Options{MaxExpanded: 1}); err == nil {
		t.Fatal("want expansion-limit error")
	}
}

func TestSingleDataNode(t *testing.T) {
	b := tree.NewBuilder()
	b.AddRootData("X", 4)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(tr, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 1 || len(res.Sequence) != 1 {
		t.Fatalf("cost=%g seq=%v", res.Cost, res.Sequence)
	}
}

func quickTree(seed int64, maxData int) *tree.Tree {
	rng := stats.NewRNG(seed)
	tr, err := workload.Random(workload.RandomConfig{
		NumData: 1 + rng.Intn(maxData),
		Dist:    stats.Uniform{Lo: 1, Hi: 100}, // continuous → distinct a.s.
	}, rng)
	if err != nil {
		panic(err)
	}
	return tr
}

// Property: the pruned data-tree search matches topo.Exact on one channel
// for every random tree, with and without the Corollary 2 extension.
func TestQuickSearchMatchesExact(t *testing.T) {
	f := func(seed int64) bool {
		tr := quickTree(seed, 8)
		exact, err := topo.Exact(tr, 1)
		if err != nil {
			return false
		}
		for _, opt := range []Options{
			AllOptions(),
			{Property1: true, Property4: true, MNExchange: 4},
			{Property4: true},
			{Property1: true},
			{},
		} {
			res, err := Search(tr, opt)
			if err != nil {
				t.Logf("seed=%d tree=%s opt=%+v: %v", seed, tr, opt, err)
				return false
			}
			if math.Abs(res.Cost-exact.Cost) > 1e-9 {
				t.Logf("seed=%d tree=%s opt=%+v: datatree=%g exact=%g",
					seed, tr, opt, res.Cost, exact.Cost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the enumerated base data tree matches the closed-form
// multinomial count for random trees with distinct weights.
func TestQuickBaseCountMatchesClosedForm(t *testing.T) {
	f := func(seed int64) bool {
		tr := quickTree(seed, 6)
		want := BasePathCount(tr)
		if !want.IsUint64() || want.Uint64() > 100000 {
			return true
		}
		count, exceeded, err := CountPaths(tr, Options{}, 0)
		if err != nil || exceeded {
			return false
		}
		if count != want.Uint64() {
			t.Logf("seed=%d tree=%s: enumerated %d, closed form %s", seed, tr, count, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: every enumerated path (under all pruning configurations)
// expands to a feasible broadcast whose cost matches the enumeration's
// reported cost.
func TestQuickEnumeratedPathsFeasible(t *testing.T) {
	f := func(seed int64) bool {
		tr := quickTree(seed, 5)
		ok := true
		_, err := EnumeratePaths(tr, AllOptions(), func(order []tree.ID, cost float64) bool {
			seq, err := BroadcastFromDataOrder(tr, order)
			if err != nil {
				ok = false
				return false
			}
			var sum float64
			for i, id := range seq {
				if tr.IsData(id) {
					sum += tr.Weight(id) * float64(i+1)
				}
			}
			if math.Abs(sum-cost) > 1e-9 {
				ok = false
				return false
			}
			return true
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSearch times the full data-tree search on the Fig. 1 tree and
// on a seed-1 full 4-ary depth-3 tree, reporting the states each search
// expands and generates.
func BenchmarkSearch(b *testing.B) {
	full, err := workload.FullMAry(4, 3, stats.Normal{Mu: 100, Sigma: 20}, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		tr   *tree.Tree
	}{{"fig1", tree.Fig1()}, {"mary4x3", full}} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *Result
			for i := 0; i < b.N; i++ {
				if res, err = Search(in.tr, AllOptions()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.Expanded), "expanded/op")
			b.ReportMetric(float64(res.Stats.Generated), "generated/op")
		})
	}
}

func BenchmarkCountPathsM3(b *testing.B) {
	tr, err := workload.FullMAry(3, 3, stats.Uniform{Lo: 1, Hi: 100}, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := CountPaths(tr, Options{}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := CountPaths(tr, AllOptions(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSearchTwentyLeaves documents the practical reach of the pruned
// data-tree search beyond the paper's 16-leaf experiments: a 20-leaf
// random tree solves within a bounded number of expansions.
func TestSearchTwentyLeaves(t *testing.T) {
	rng := stats.NewRNG(12)
	tr, err := workload.Random(workload.RandomConfig{
		NumData: 20,
		Dist:    stats.Normal{Mu: 100, Sigma: 25},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(tr, Options{Property1: true, Property4: true, MaxExpanded: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Alloc.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("20 leaves: expanded %d, generated %d, wait %.3f",
		res.Expanded, res.Generated, res.Cost)
}

// TestSearchExpansionLimitBoundary pins the off-by-one fix: a search that
// needs exactly E expansions succeeds with MaxExpanded = E and fails with
// MaxExpanded = E-1.
func TestSearchExpansionLimitBoundary(t *testing.T) {
	tr := tree.Fig1()
	full, err := Search(tr, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := full.Stats.Expanded
	if e < 2 {
		t.Fatalf("need a search with >= 2 expansions, got %d", e)
	}
	opt := AllOptions()
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
	}
}

// TestSearchCountersMirrorStats checks that the legacy Expanded/Generated
// fields mirror the Stats counters and that the gauges are populated.
func TestSearchCountersMirrorStats(t *testing.T) {
	res, err := Search(tree.Fig1(), AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Expanded != res.Stats.Expanded || res.Generated != res.Stats.Generated {
		t.Errorf("legacy counters %d/%d diverge from Stats %+v", res.Expanded, res.Generated, res.Stats)
	}
	if res.Stats.Generated == 0 || res.Stats.PeakQueue == 0 {
		t.Errorf("gauges not populated: %+v", res.Stats)
	}
}
