package heuristic

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/tree"
	"repro/internal/workload"
)

// TestSortTreeFig1: the paper sorts the pairs 2–3, A–B, E–4 and C–D of
// Fig. 1(a); the example tree is already in sorted order, so its sorted
// preorder is its plain preorder.
func TestSortTreeFig1(t *testing.T) {
	tr := tree.Fig1()
	if got, want := SortedPreorder(tr), tr.Preorder(); !slices.Equal(got, want) {
		t.Fatalf("sorted preorder = %v, want %v", tr.LabelOf(got), tr.LabelOf(want))
	}
}

// TestSortTreeReorders: a scrambled version of Fig. 1(a) must sort back to
// the paper's Fig. 13 order (2 before 3, A before B, E before 4, C before D),
// whose preorder is that of 1(2(A B) 3(E 4(C D))).
func TestSortTreeReorders(t *testing.T) {
	b := tree.NewBuilder()
	n1 := b.AddRoot("1")
	n3 := b.AddIndex(n1, "3") // scrambled: 3 first
	n4 := b.AddIndex(n3, "4")
	b.AddData(n4, "D", 7) // D before C
	b.AddData(n4, "C", 15)
	b.AddData(n3, "E", 18) // E after 4
	n2 := b.AddIndex(n1, "2")
	b.AddData(n2, "B", 10) // B before A
	b.AddData(n2, "A", 20)
	scrambled, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "2", "A", "B", "3", "E", "4", "C", "D"}
	if got := scrambled.LabelOf(SortedPreorder(scrambled)); !slices.Equal(got, want) {
		t.Fatalf("sorted preorder = %v, want %v", got, want)
	}
}

// TestSortingBroadcastFig1 reproduces Fig. 13's single-channel allocation
// 1 2 A B 3 E 4 C D (for this example the heuristic hits the optimum 391/70).
func TestSortingBroadcastFig1(t *testing.T) {
	a, err := SortingBroadcast(tree.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	want := 391.0 / 70.0
	if math.Abs(a.DataWait()-want) > 1e-9 {
		t.Fatalf("DataWait = %v, want %v", a.DataWait(), want)
	}
	var labels []string
	for s := 1; s <= a.NumSlots(); s++ {
		labels = append(labels, a.Tree().Label(a.At(1, s)))
	}
	if got := strings.Join(labels, ""); got != "12AB3E4CD" {
		t.Fatalf("broadcast = %s, want 12AB3E4CD", got)
	}
}

// TestAllocateSortedTwoChannels: the 1_To_k procedure on the example tree
// with k = 2 produces exactly the paper's Fig. 2(b) allocation with data
// wait 272/70 ≈ 3.88.
func TestAllocateSortedTwoChannels(t *testing.T) {
	a, err := AllocateSorted(tree.Fig1(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.DataWait()-272.0/70.0) > 1e-9 {
		t.Fatalf("DataWait = %v, want %v", a.DataWait(), 272.0/70.0)
	}
	if a.NumSlots() != 5 {
		t.Fatalf("NumSlots = %d, want 5", a.NumSlots())
	}
	st := a.Tree()
	wantSlots := map[string]int{"1": 1, "2": 2, "3": 2, "A": 3, "B": 3, "E": 4, "4": 4, "C": 5, "D": 5}
	for label, slot := range wantSlots {
		if got := a.Slot(st.FindLabel(label)); got != slot {
			t.Errorf("Slot(%s) = %d, want %d", label, got, slot)
		}
	}
}

// TestAllocateSortedOneChannelMatchesPreorder: for k = 1 the procedure
// degenerates to the sorted preorder broadcast.
func TestAllocateSortedOneChannelMatchesPreorder(t *testing.T) {
	tr := tree.Fig1()
	a1, err := AllocateSorted(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := SortingBroadcast(tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1.DataWait()-ap.DataWait()) > 1e-9 {
		t.Fatalf("1_To_1 wait %v != preorder wait %v", a1.DataWait(), ap.DataWait())
	}
}

// TestAllocateSortedDefersChildSharingSlot exercises the feasibility guard:
// a merged parent landing in the same slot as its child defers the child.
func TestAllocateSortedDefersChildSharingSlot(t *testing.T) {
	b := tree.NewBuilder()
	r := b.AddRoot("R")
	i2 := b.AddIndex(r, "I2")
	b.AddData(i2, "D1", 30)
	i3 := b.AddIndex(r, "I3")
	b.AddData(i3, "D2", 20)
	i4 := b.AddIndex(r, "I4")
	b.AddData(i4, "D3", 10)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := AllocateSorted(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	st := a.Tree()
	// I4 overflows to the dump list together with D3; D3 must be deferred
	// one slot past its parent.
	if pi, pd := a.Slot(st.FindLabel("I4")), a.Slot(st.FindLabel("D3")); pd <= pi {
		t.Fatalf("D3 (slot %d) not after parent I4 (slot %d)", pd, pi)
	}
}

func TestAllocateSortedErrors(t *testing.T) {
	if _, err := AllocateSorted(tree.Fig1(), 0); err == nil {
		t.Fatal("want error for k=0")
	}
}

// TestShrinkFig1: combining nodes 2 and 4 reduces the example to three
// leaves; the restored optimal path reaches the true optimum 391/70.
func TestShrinkFig1(t *testing.T) {
	tr := tree.Fig1()
	s, err := ShrinkToSize(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Reduced.NumData(); got != 3 {
		t.Fatalf("reduced leaves = %d, want 3 (%s)", got, s.Reduced)
	}
	if got := s.Reduced.String(); got != "1(2:30 3(E:18 4:22))" {
		t.Fatalf("reduced = %s", got)
	}
	a, err := SolveShrinking(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Node combination loses subtree-size information: the reduced tree's
	// optimum expands to 1 2 A B 3 4 C D E (Σ W·T = 423), a bit above the
	// true optimum 391. Pin the heuristic's actual behavior.
	if math.Abs(a.DataWait()-423.0/70.0) > 1e-9 {
		t.Fatalf("shrinking DataWait = %v, want %v", a.DataWait(), 423.0/70.0)
	}
}

func TestShrinkNoOpWhenSmall(t *testing.T) {
	tr := tree.Fig1()
	s, err := ShrinkToSize(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(tr, s.Reduced) {
		t.Fatalf("shrinking below threshold should be identity, got %s", s.Reduced)
	}
}

func TestShrinkErrors(t *testing.T) {
	if _, err := ShrinkToSize(tree.Fig1(), 0); err == nil {
		t.Fatal("want error for maxData=0")
	}
	if _, err := SolvePartitioning(tree.Fig1(), 0); err == nil {
		t.Fatal("want error for maxData=0")
	}
}

// TestPartitioningFig1: partitioning with per-part limit 2 reproduces the
// sorted-optimal broadcast 391/70 on the example.
func TestPartitioningFig1(t *testing.T) {
	a, err := SolvePartitioning(tree.Fig1(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.DataWait()-391.0/70.0) > 1e-9 {
		t.Fatalf("partitioning DataWait = %v, want %v", a.DataWait(), 391.0/70.0)
	}
}

func quickTree(seed int64, maxData int) *tree.Tree {
	rng := stats.NewRNG(seed)
	tr, err := workload.Random(workload.RandomConfig{
		NumData: 1 + rng.Intn(maxData),
		Dist:    stats.Uniform{Lo: 1, Hi: 100},
	}, rng)
	if err != nil {
		panic(err)
	}
	return tr
}

// Property: every heuristic produces a feasible allocation that is never
// better than the exact optimum, and shrinking with a non-binding limit
// matches the optimum exactly.
func TestQuickHeuristicsFeasibleAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		tr := quickTree(seed, 9)
		exact, err := topo.Exact(tr, 1)
		if err != nil {
			return false
		}
		check := func(wait float64, err error) bool {
			return err == nil && wait >= exact.Cost-1e-9
		}
		sb, err := SortingBroadcast(tr)
		if err != nil || !check(sb.DataWait(), sb.Validate()) {
			t.Logf("seed=%d sorting failed on %s", seed, tr)
			return false
		}
		sh, err := SolveShrinking(tr, 4)
		if err != nil || !check(sh.DataWait(), sh.Validate()) {
			t.Logf("seed=%d shrinking failed on %s", seed, tr)
			return false
		}
		pt, err := SolvePartitioning(tr, 4)
		if err != nil || !check(pt.DataWait(), pt.Validate()) {
			t.Logf("seed=%d partitioning failed on %s", seed, tr)
			return false
		}
		// Non-binding shrink limit = optimal search.
		full, err := SolveShrinking(tr, tr.NumData())
		if err != nil || math.Abs(full.DataWait()-exact.Cost) > 1e-9 {
			t.Logf("seed=%d non-binding shrink %v != exact %v on %s",
				seed, full.DataWait(), exact.Cost, tr)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: AllocateSorted is feasible for any k and its cost never
// increases with more channels on full m-ary trees.
func TestQuickAllocateSortedFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		tr, err := workload.Random(workload.RandomConfig{
			NumData: 1 + rng.Intn(20),
			Dist:    stats.Uniform{Lo: 1, Hi: 100},
		}, rng)
		if err != nil {
			return false
		}
		for k := 1; k <= 4; k++ {
			a, err := AllocateSorted(tr, k)
			if err != nil {
				t.Logf("seed=%d k=%d tree=%s: %v", seed, k, tr, err)
				return false
			}
			if err := a.Validate(); err != nil {
				t.Logf("seed=%d k=%d: %v", seed, k, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSortingBroadcast(b *testing.B) {
	tr, err := workload.FullMAry(4, 3, stats.Normal{Mu: 100, Sigma: 20}, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SortingBroadcast(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocateSortedK3(b *testing.B) {
	tr, err := workload.FullMAry(4, 4, stats.Normal{Mu: 100, Sigma: 20}, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AllocateSorted(tr, 3); err != nil {
			b.Fatal(err)
		}
	}
}
