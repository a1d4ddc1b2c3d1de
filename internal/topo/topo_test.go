package topo

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

// labelsOf renders a compound as a sorted label string like "A,4".
func labelsOf(t *tree.Tree, comp []tree.ID) string {
	ls := t.LabelOf(comp)
	sort.Strings(ls)
	return strings.Join(ls, ",")
}

// pathString renders compound levels like "[1][2,3][4,A]...".
func pathString(t *tree.Tree, levels [][]tree.ID) string {
	var b strings.Builder
	for _, l := range levels {
		b.WriteString("[" + labelsOf(t, l) + "]")
	}
	return b.String()
}

// TestFig6UnprunedPathCount: the unpruned 1-channel topological tree of the
// Fig. 1(a) example (paper Fig. 6) has one path per topological order of
// the 9-node tree: 9! / (9·3·5·3) = 896 by the hook-length formula.
func TestFig6UnprunedPathCount(t *testing.T) {
	tr := tree.Fig1()
	count, exceeded, err := CountPaths(tr, Options{Channels: 1, Prune: NoPrunes()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if exceeded || count != 896 {
		t.Fatalf("unpruned 1-channel paths = %d, want 896", count)
	}
}

// TestExample1TwoChannelNeighbors reproduces the paper's Example 1: after
// the path {1},{2,3} the candidate set is S = {4,A,B,E} and the unpruned
// next-neighbors are the six 2-subsets {A,4},{B,4},{4,E},{A,B},{A,E},{B,E}.
func TestExample1TwoChannelNeighbors(t *testing.T) {
	tr := tree.Fig1()
	g, err := newGen(tr, Options{Channels: 2, Prune: NoPrunes()})
	if err != nil {
		t.Fatal(err)
	}
	placed := bitset.New(tr.NumNodes())
	placed.Add(int(tr.FindLabel("1")))
	placed.Add(int(tr.FindLabel("2")))
	placed.Add(int(tr.FindLabel("3")))
	prev := []tree.ID{tr.FindLabel("2"), tr.FindLabel("3")}
	succ := g.successors(placed, prev)
	got := map[string]bool{}
	for _, c := range succ {
		got[labelsOf(tr, c)] = true
	}
	want := []string{"4,A", "4,B", "4,E", "A,B", "A,E", "B,E"}
	if len(got) != len(want) {
		t.Fatalf("successors = %v, want %v", got, want)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing successor {%s}", w)
		}
	}
}

// TestFig10PrunedTwoChannelTree: with all pruning on, the 2-channel
// topological tree of the example collapses to the two paths of the
// paper's Fig. 10:
//
//	[1][2,3][A,4][C,E][B,D]  (cost 277)
//	[1][2,3][A,E][B,4][C,D]  (cost 264)
func TestFig10PrunedTwoChannelTree(t *testing.T) {
	tr := tree.Fig1()
	gotPaths := map[string]float64{}
	count, err := EnumeratePaths(tr, Options{Channels: 2, Prune: AllPrunes()},
		func(levels [][]tree.ID, cost float64) bool {
			gotPaths[pathString(tr, levels)] = cost
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("pruned 2-channel paths = %d, want 2 (Fig. 10); got %v", count, gotPaths)
	}
	want := map[string]float64{
		"[1][2,3][4,A][C,E][B,D]": 277,
		"[1][2,3][A,E][4,B][C,D]": 264,
	}
	for p, c := range want {
		got, ok := gotPaths[p]
		if !ok {
			t.Errorf("missing path %s; got %v", p, gotPaths)
			continue
		}
		if math.Abs(got-c) > 1e-9 {
			t.Errorf("path %s cost = %g, want %g", p, got, c)
		}
	}
}

// TestFig1TwoChannelOptimal: the optimal 2-channel data wait for the
// example tree is 264/70 ≈ 3.771, strictly better than the paper's
// illustrative Fig. 2(b) allocation (272/70 ≈ 3.886).
func TestFig1TwoChannelOptimal(t *testing.T) {
	tr := tree.Fig1()
	res, err := Exact(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 264.0 / 70.0
	if math.Abs(res.Cost-want) > 1e-9 {
		t.Fatalf("Exact 2-channel cost = %v, want %v", res.Cost, want)
	}
	if err := res.Alloc.Validate(); err != nil {
		t.Fatal(err)
	}

	resP, err := Search(tr, Options{Channels: 2, Prune: AllPrunes(), TightBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resP.Cost-want) > 1e-9 {
		t.Fatalf("pruned Search cost = %v, want %v", resP.Cost, want)
	}
}

// TestFig1OneChannelOptimal pins the optimal single-channel broadcast for
// the example: 1 2 A B 3 E 4 C D with Σ W·T = 391 (data wait 391/70).
func TestFig1OneChannelOptimal(t *testing.T) {
	tr := tree.Fig1()
	res, err := Exact(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 391.0 / 70.0
	if math.Abs(res.Cost-want) > 1e-9 {
		t.Fatalf("Exact 1-channel cost = %v, want %v", res.Cost, want)
	}
	resP, err := Search(tr, Options{Channels: 1, Prune: AllPrunes(), TightBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resP.Cost-want) > 1e-9 {
		t.Fatalf("pruned Search cost = %v, want %v", resP.Cost, want)
	}
}

// TestPrunedMatchesUnprunedMinimum: on the example tree, for k = 1..3, the
// minimum cost over all unpruned paths equals both Exact and the fully
// pruned Search.
func TestPrunedMatchesUnprunedMinimum(t *testing.T) {
	tr := tree.Fig1()
	for k := 1; k <= 3; k++ {
		minCost := math.Inf(1)
		_, err := EnumeratePaths(tr, Options{Channels: k, Prune: NoPrunes()},
			func(_ [][]tree.ID, cost float64) bool {
				if cost < minCost {
					minCost = cost
				}
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Exact(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := Search(tr, Options{Channels: k, Prune: AllPrunes(), TightBound: true})
		if err != nil {
			t.Fatal(err)
		}
		total := tr.TotalWeight()
		if math.Abs(exact.Cost*total-minCost) > 1e-9 {
			t.Errorf("k=%d: Exact %g != enumerated min %g", k, exact.Cost*total, minCost)
		}
		if math.Abs(pruned.Cost*total-minCost) > 1e-9 {
			t.Errorf("k=%d: pruned %g != enumerated min %g", k, pruned.Cost*total, minCost)
		}
	}
}

// TestPruningShrinksSearch: the pruned search must expand no more nodes
// than the unpruned one on the example tree (the point of Section 3.2).
func TestPruningShrinksSearch(t *testing.T) {
	tr := tree.Fig1()
	for k := 1; k <= 2; k++ {
		pruned, err := Search(tr, Options{Channels: k, Prune: AllPrunes(), TightBound: true})
		if err != nil {
			t.Fatal(err)
		}
		unpruned, err := Search(tr, Options{Channels: k, Prune: NoPrunes(), TightBound: true})
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Generated > unpruned.Generated {
			t.Errorf("k=%d: pruned generated %d > unpruned %d", k, pruned.Generated, unpruned.Generated)
		}
		if math.Abs(pruned.Cost-unpruned.Cost) > 1e-9 {
			t.Errorf("k=%d: pruned cost %g != unpruned cost %g", k, pruned.Cost, unpruned.Cost)
		}
	}
}

// TestCorollary1 checks the wide-channel fast path against Exact.
func TestCorollary1(t *testing.T) {
	tr := tree.Fig1()
	// MaxLevelWidth of the example is 4 (level 3: A, B, E, 4).
	res, ok, err := Corollary1(tr, 4)
	if err != nil || !ok {
		t.Fatalf("Corollary1(4): ok=%v err=%v", ok, err)
	}
	exact, err := Exact(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-exact.Cost) > 1e-9 {
		t.Fatalf("Corollary1 cost %g != Exact %g", res.Cost, exact.Cost)
	}
	if _, ok, _ := Corollary1(tr, 3); ok {
		t.Fatal("Corollary1 should not apply for k=3 < width 4")
	}
}

func TestChainTreeOneChannelSuffices(t *testing.T) {
	// Section 1.1's chain example: a chain uses only one slot sequence;
	// the optimal k-channel allocation equals the 1-channel one in cost.
	chain, err := workload.Chain(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Exact(chain, 1)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Exact(chain, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost != r3.Cost {
		t.Fatalf("chain: k=1 cost %g != k=3 cost %g", r1.Cost, r3.Cost)
	}
	if r1.Cost != 5 { // data node at slot 5 regardless
		t.Fatalf("chain cost = %g, want 5", r1.Cost)
	}
}

func TestSingleNodeTree(t *testing.T) {
	b := tree.NewBuilder()
	b.AddRootData("X", 3)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exact(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 1 {
		t.Fatalf("single node cost = %g, want 1", res.Cost)
	}
}

func TestSearchErrors(t *testing.T) {
	tr := tree.Fig1()
	if _, err := Search(tr, Options{Channels: 0}); err == nil {
		t.Fatal("want error for k=0")
	}
	if _, err := Search(tr, Options{Channels: 1, MaxExpanded: 1}); err == nil {
		t.Fatal("want expansion-limit error")
	}
}

func TestCountPathsLimit(t *testing.T) {
	tr := tree.Fig1()
	count, exceeded, err := CountPaths(tr, Options{Channels: 1, Prune: NoPrunes()}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !exceeded || count != 10 {
		t.Fatalf("count=%d exceeded=%v, want 10/true", count, exceeded)
	}
	count, exceeded, err = CountPaths(tr, Options{Channels: 1, Prune: NoPrunes()}, 896)
	if err != nil {
		t.Fatal(err)
	}
	if exceeded || count != 896 {
		t.Fatalf("count=%d exceeded=%v, want 896/false", count, exceeded)
	}
}

// quickTree draws a small random tree with integer weights.
func quickTree(seed int64, maxData int) *tree.Tree {
	rng := stats.NewRNG(seed)
	tr, err := workload.Random(workload.RandomConfig{
		NumData: 1 + rng.Intn(maxData),
		Dist:    stats.Uniform{Lo: 1, Hi: 50},
	}, rng)
	if err != nil {
		panic(err)
	}
	return tr
}

// Property: the fully pruned Search finds the same optimal cost as Exact
// on random trees for k = 1, 2, 3 — i.e. the paper's pruning rules never
// prune away every optimal path.
func TestQuickPrunedSearchIsOptimal(t *testing.T) {
	f := func(seed int64) bool {
		tr := quickTree(seed, 8)
		for k := 1; k <= 3; k++ {
			exact, err := Exact(tr, k)
			if err != nil {
				return false
			}
			pruned, err := Search(tr, Options{Channels: k, Prune: AllPrunes(), TightBound: true})
			if err != nil {
				t.Logf("seed=%d k=%d tree=%s: pruned search failed: %v", seed, k, tr, err)
				return false
			}
			if math.Abs(exact.Cost-pruned.Cost) > 1e-9 {
				t.Logf("seed=%d k=%d tree=%s: exact=%g pruned=%g", seed, k, tr, exact.Cost, pruned.Cost)
				return false
			}
			if err := pruned.Alloc.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Exact equals the enumerated unpruned minimum on small trees.
func TestQuickExactMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		tr := quickTree(seed, 6)
		if tr.NumNodes() > 9 {
			return true
		}
		for k := 1; k <= 2; k++ {
			minCost := math.Inf(1)
			if _, err := EnumeratePaths(tr, Options{Channels: k, Prune: NoPrunes()},
				func(_ [][]tree.ID, cost float64) bool {
					if cost < minCost {
						minCost = cost
					}
					return true
				}); err != nil {
				return false
			}
			exact, err := Exact(tr, k)
			if err != nil {
				return false
			}
			if math.Abs(exact.Cost*tr.TotalWeight()-minCost) > 1e-9 {
				t.Logf("seed=%d k=%d tree=%s: exact=%g enum=%g",
					seed, k, tr, exact.Cost*tr.TotalWeight(), minCost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the paper's loose bound and the tight bound find the same
// optimum (both are admissible), and wider channels never hurt.
func TestQuickBoundsAndMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		tr := quickTree(seed, 7)
		var prev float64 = math.Inf(1)
		for k := 1; k <= 3; k++ {
			loose, err := Search(tr, Options{Channels: k, Prune: AllPrunes()})
			if err != nil {
				return false
			}
			tight, err := Search(tr, Options{Channels: k, Prune: AllPrunes(), TightBound: true})
			if err != nil {
				return false
			}
			if math.Abs(loose.Cost-tight.Cost) > 1e-9 {
				return false
			}
			if tight.Cost > prev+1e-9 {
				t.Logf("seed=%d: cost increased from k=%d to k=%d (%g -> %g)",
					seed, k-1, k, prev, tight.Cost)
				return false
			}
			prev = tight.Cost
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Corollary 1's level allocation matches Exact whenever it
// applies.
func TestQuickCorollary1Optimal(t *testing.T) {
	f := func(seed int64) bool {
		tr := quickTree(seed, 6)
		k := tr.MaxLevelWidth()
		if k > 6 {
			return true // keep Exact cheap
		}
		res, ok, err := Corollary1(tr, k)
		if err != nil || !ok {
			return false
		}
		exact, err := Exact(tr, k)
		if err != nil {
			return false
		}
		if math.Abs(res.Cost-exact.Cost) > 1e-9 {
			t.Logf("seed=%d tree=%s k=%d: corollary=%g exact=%g", seed, tr, k, res.Cost, exact.Cost)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExactFig1OneChannel(b *testing.B) {
	tr := tree.Fig1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Exact(tr, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchPrunedVsUnpruned times the k=2 search on the Fig. 1 tree
// and on a seed-1 random 9-data tree under every pruning rule, none, and
// the provably exact subset Exact uses, reporting the states each search
// expands and generates.
func BenchmarkSearchPrunedVsUnpruned(b *testing.B) {
	random9, err := workload.Random(workload.RandomConfig{
		NumData: 9,
		Dist:    stats.Uniform{Lo: 1, Hi: 100},
	}, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		tr   *tree.Tree
	}{{"fig1", tree.Fig1()}, {"random9", random9}} {
		for _, c := range []struct {
			name  string
			prune Prune
		}{
			{"pruned", AllPrunes()},
			{"unpruned", NoPrunes()},
			{"exact", Prune{Property1: true, DataRank: true}},
		} {
			b.Run(in.name+"/"+c.name, func(b *testing.B) {
				var res *Result
				for i := 0; i < b.N; i++ {
					if res, err = Search(in.tr, Options{Channels: 2, Prune: c.prune, TightBound: true}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.Stats.Expanded), "expanded/op")
				b.ReportMetric(float64(res.Stats.Generated), "generated/op")
			})
		}
	}
}
