package alphatree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tree"
)

func mkItems(weights ...float64) []Item {
	items := make([]Item, len(weights))
	for i, w := range weights {
		items[i] = Item{Label: fmt.Sprintf("K%d", i+1), Key: int64(i + 1), Weight: w}
	}
	return items
}

// inorderLeaves returns the data labels in left-to-right order.
func inorderLeaves(t *tree.Tree) []string {
	var out []string
	var walk func(id tree.ID)
	walk = func(id tree.ID) {
		if t.IsData(id) {
			out = append(out, t.Label(id))
			return
		}
		for _, c := range t.Children(id) {
			walk(c)
		}
	}
	walk(t.Root())
	return out
}

func sameOrder(a, b []string) bool {
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

func TestHuTuckerPreservesOrder(t *testing.T) {
	items := mkItems(5, 40, 2, 30, 1, 25, 7)
	tr, err := HuTucker(items)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(items))
	for i := range items {
		want[i] = items[i].Label
	}
	if got := inorderLeaves(tr); !sameOrder(got, want) {
		t.Fatalf("leaf order = %v, want %v", got, want)
	}
	if !tr.Keyed() {
		t.Fatal("Hu-Tucker tree should be keyed")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHuTuckerKnownInstance(t *testing.T) {
	// Classic example: equal weights give a balanced tree.
	tr, err := HuTucker(mkItems(1, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := WeightedPathLength(tr); got != 8 { // 4 leaves at depth 2
		t.Fatalf("WPL = %g, want 8", got)
	}
	if tr.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", tr.Depth())
	}
}

func TestHuTuckerSingleItem(t *testing.T) {
	tr, err := HuTucker(mkItems(7))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 || tr.NumData() != 1 {
		t.Fatalf("single-item tree has %d nodes", tr.NumNodes())
	}
	if got := WeightedPathLength(tr); got != 0 {
		t.Fatalf("WPL = %g, want 0", got)
	}
}

func TestHuffmanOptimalButUnkeyed(t *testing.T) {
	items := mkItems(1, 1, 10, 1)
	tr, err := Huffman(items)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Keyed() {
		t.Fatal("Huffman tree must be unkeyed (it breaks key order)")
	}
	// The weight-10 leaf must sit at depth 1.
	id := tr.FindLabel("K3")
	if got := tr.Level(id); got != 2 {
		t.Fatalf("heavy leaf at level %d, want 2", got)
	}
	// Huffman never exceeds Hu-Tucker (alphabetic adds a constraint).
	ht, err := HuTucker(items)
	if err != nil {
		t.Fatal(err)
	}
	if WeightedPathLength(tr) > WeightedPathLength(ht)+1e-9 {
		t.Fatalf("Huffman WPL %g > Hu-Tucker WPL %g",
			WeightedPathLength(tr), WeightedPathLength(ht))
	}
}

func TestOptimalKAryFanoutValidation(t *testing.T) {
	if _, err := OptimalKAry(mkItems(1, 2), 1); err == nil {
		t.Fatal("want error for fanout 1")
	}
	if _, err := KAry(mkItems(1, 2), 1); err == nil {
		t.Fatal("want error for fanout 1")
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := HuTucker(nil); err == nil {
		t.Fatal("want error for empty items")
	}
	bad := mkItems(1, 2)
	bad[1].Key = bad[0].Key // duplicate key
	if _, err := HuTucker(bad); err == nil {
		t.Fatal("want error for non-ascending keys")
	}
	neg := mkItems(1)
	neg[0].Weight = -1
	if _, err := Huffman(neg); err == nil {
		t.Fatal("want error for negative weight")
	}
}

// TestOverflowingWeightsError pins that weights whose sum overflows
// float64 are rejected by every builder instead of panicking, and that
// the DP reports a finite total whose weighted path length overflows.
func TestOverflowingWeightsError(t *testing.T) {
	items := mkItems(1e308, 1e308, 1e308)
	builders := map[string]func([]Item) (*tree.Tree, error){
		"HuTucker":                func(it []Item) (*tree.Tree, error) { return HuTucker(it) },
		"Huffman":                 func(it []Item) (*tree.Tree, error) { return Huffman(it) },
		"OptimalAlphabetic":       func(it []Item) (*tree.Tree, error) { return OptimalAlphabetic(it) },
		"OptimalKAry":             func(it []Item) (*tree.Tree, error) { return OptimalKAry(it, 3) },
		"OptimalKAryDepthLimited": func(it []Item) (*tree.Tree, error) { return OptimalKAryDepthLimited(it, 2, 2) },
		"KAry":                    func(it []Item) (*tree.Tree, error) { return KAry(it, 2) },
	}
	for name, build := range builders {
		if _, err := build(items); err == nil {
			t.Errorf("%s: want error for a total weight overflowing float64", name)
		}
	}
	// The total 1.6e308 is finite; the optimal weighted path length,
	// three levels of it, is not.
	wide := mkItems(2e307, 2e307, 2e307, 2e307, 2e307, 2e307, 2e307, 2e307)
	for _, k := range []int{2, 3} {
		if _, err := OptimalKAry(wide, k); err == nil {
			t.Errorf("OptimalKAry(k=%d): want error for an overflowing weighted path length", k)
		}
	}
}

func TestOptimalKAryWiderFanoutNeverWorse(t *testing.T) {
	items := mkItems(3, 1, 4, 1, 5, 9, 2, 6)
	prev := math.Inf(1)
	for k := 2; k <= 5; k++ {
		tr, err := OptimalKAry(items, k)
		if err != nil {
			t.Fatal(err)
		}
		wpl := WeightedPathLength(tr)
		if wpl > prev+1e-9 {
			t.Fatalf("fanout %d WPL %g worse than fanout %d", k, wpl, k-1)
		}
		prev = wpl
	}
}

func TestKAryFanoutRespected(t *testing.T) {
	items := mkItems(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)
	for k := 2; k <= 4; k++ {
		tr, err := KAry(items, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range tr.Preorder() {
			if len(tr.Children(id)) > k {
				t.Fatalf("fanout %d violated: node %s has %d children",
					k, tr.Label(id), len(tr.Children(id)))
			}
		}
		if got := inorderLeaves(tr); len(got) != len(items) {
			t.Fatalf("lost leaves: %v", got)
		}
	}
}

// Property: Hu-Tucker equals the O(n³) DP optimum (OptimalAlphabetic) on
// random instances — the classical optimality of [HT71].
func TestQuickHuTuckerOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(12)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(100))
		}
		items := mkItems(weights...)
		ht, err := HuTucker(items)
		if err != nil {
			t.Logf("seed=%d: HuTucker: %v", seed, err)
			return false
		}
		if n == 1 {
			return WeightedPathLength(ht) == 0
		}
		opt, err := OptimalAlphabetic(items)
		if err != nil {
			return false
		}
		a, b := WeightedPathLength(ht), WeightedPathLength(opt)
		if math.Abs(a-b) > 1e-9 {
			t.Logf("seed=%d weights=%v: HuTucker WPL %g != DP %g", seed, weights, a, b)
			return false
		}
		// Order preservation.
		want := make([]string, n)
		for i := range items {
			want[i] = items[i].Label
		}
		return sameOrder(inorderLeaves(ht), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: Huffman is a lower bound for every alphabetic construction,
// and the greedy KAry respects order and is never better than OptimalKAry.
func TestQuickConstructionHierarchy(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(10)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(50))
		}
		items := mkItems(weights...)
		huff, err := Huffman(items)
		if err != nil {
			return false
		}
		ht, err := HuTucker(items)
		if err != nil {
			return false
		}
		k := 2 + rng.Intn(3)
		optK, err := OptimalKAry(items, k)
		if err != nil {
			return false
		}
		greedyK, err := KAry(items, k)
		if err != nil {
			return false
		}
		wHuff := WeightedPathLength(huff)
		wHT := WeightedPathLength(ht)
		wOptK := WeightedPathLength(optK)
		wGreedy := WeightedPathLength(greedyK)
		if wHuff > wHT+1e-9 {
			t.Logf("seed=%d: huffman %g > hu-tucker %g", seed, wHuff, wHT)
			return false
		}
		if wOptK > wHT+1e-9 { // wider-or-equal fanout never worse than binary
			t.Logf("seed=%d: optK %g > binary %g", seed, wOptK, wHT)
			return false
		}
		if wGreedy < wOptK-1e-9 {
			t.Logf("seed=%d: greedy %g < optimal %g", seed, wGreedy, wOptK)
			return false
		}
		want := make([]string, n)
		for i := range items {
			want[i] = items[i].Label
		}
		return sameOrder(inorderLeaves(greedyK), want) && sameOrder(inorderLeaves(optK), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// pairScanCombine is the original Hu–Tucker combination phase, kept as
// the oracle for combine: every merge rescans all compatible pairs and
// keeps the first one, in (i, j) order, with the smallest sum.
func pairScanCombine(weights []float64) (left, right []int32) {
	n := len(weights)
	type cn struct {
		w        float64
		external bool
		id       int32
	}
	work := make([]cn, n)
	for i, w := range weights {
		work[i] = cn{w: w, external: true, id: int32(i)}
	}
	for k := 0; len(work) > 1; k++ {
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < len(work); i++ {
			for j := i + 1; j < len(work); j++ {
				sum := work[i].w + work[j].w
				if sum < best {
					bi, bj, best = i, j, sum
				}
				if work[j].external {
					break // further pairs from i are incompatible
				}
			}
		}
		left = append(left, work[bi].id)
		right = append(right, work[bj].id)
		work[bi] = cn{w: best, id: int32(n + k)}
		work = append(work[:bj], work[bj+1:]...)
	}
	return left, right
}

// combinationLevels returns each item's depth in a combination tree.
func combinationLevels(n int, left, right []int32) []int {
	levels := make([]int, n)
	depth := make([]int, len(left)) // of merge k; the last merge is the root
	for k := len(left) - 1; k >= 0; k-- {
		for _, c := range [2]int32{left[k], right[k]} {
			if int(c) < n {
				levels[c] = depth[k] + 1
			} else {
				depth[int(c)-n] = depth[k] + 1
			}
		}
	}
	return levels
}

// leafDepths returns the depth of every data leaf, left to right.
func leafDepths(t *tree.Tree) []int {
	var out []int
	var walk func(id tree.ID)
	walk = func(id tree.ID) {
		if t.IsData(id) {
			out = append(out, t.Level(id)-1)
			return
		}
		for _, c := range t.Children(id) {
			walk(c)
		}
	}
	walk(t.Root())
	return out
}

func zipfWeights(n int) []float64 {
	z := stats.Zipf{Theta: 0.8}
	w := make([]float64, n)
	for i := range w {
		w[i] = z.Sample(nil)
	}
	return w
}

// TestHuTuckerMatchesPairScan holds the segment-heap combination phase to
// the all-pairs scan it replaced: the same merges in the same order, so
// the same leaf levels and, since an alphabetic tree is fixed by its leaf
// levels, the same tree, or the same reconstruction error where rounding
// left the levels unrealizable. The families stress the tie order: uniform
// floats, small integers with zeros and many exact ties, powers 2^-k over
// 120 binades (fl(a+b) == a whenever b is more than 53 binades below),
// weights a few ulps apart (unequal pairs whose sums round to one value),
// lookup's monotone Zipf(0.8) catalog, and a few large random instances.
func TestHuTuckerMatchesPairScan(t *testing.T) {
	families := []struct {
		name string
		gen  func(rng *rand.Rand) float64
	}{
		{"uniform", func(rng *rand.Rand) float64 { return 100 * rng.Float64() }},
		{"smallint", func(rng *rand.Rand) float64 { return float64(rng.Intn(4)) }},
		{"pow2", func(rng *rand.Rand) float64 { return math.Ldexp(1, -rng.Intn(120)) }},
		{"ulp", func(rng *rand.Rand) float64 { return math.Ldexp(1+float64(rng.Intn(4))*0x1p-52, rng.Intn(3)) }},
	}
	check := func(name string, weights []float64) {
		t.Helper()
		wantL, wantR := pairScanCombine(weights)
		gotL, gotR := combine(mkItems(weights...))
		for k := range wantL {
			if gotL[k] != wantL[k] || gotR[k] != wantR[k] {
				t.Fatalf("%s (n=%d): merge %d joins (%d, %d), pair scan joins (%d, %d)",
					name, len(weights), k, gotL[k], gotR[k], wantL[k], wantR[k])
			}
		}
		items := mkItems(weights...)
		want := combinationLevels(len(weights), wantL, wantR)
		tr, err := HuTucker(items)
		if _, wantErr := fromLevels(items, want); (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: HuTucker error %v, pair scan levels error %v", name, err, wantErr)
		}
		if err != nil {
			return
		}
		for i, d := range leafDepths(tr) {
			if d != want[i] {
				t.Fatalf("%s (n=%d): leaf %d at depth %d, pair scan puts it at %d",
					name, len(weights), i, d, want[i])
			}
		}
	}
	for _, f := range families {
		for seed := int64(0); seed < 1500; seed++ {
			rng := stats.NewRNG(seed)
			weights := make([]float64, 2+rng.Intn(63))
			for i := range weights {
				weights[i] = f.gen(rng)
			}
			check(fmt.Sprintf("%s/seed=%d", f.name, seed), weights)
		}
	}
	check("zipf0.8/n=1000", zipfWeights(1000))
	for seed := int64(0); seed < 12; seed++ {
		rng := stats.NewRNG(seed)
		f := families[seed%int64(len(families))]
		weights := make([]float64, 2+rng.Intn(1999))
		for i := range weights {
			weights[i] = f.gen(rng)
		}
		check(fmt.Sprintf("%s/large/seed=%d", f.name, seed), weights)
	}
}

func BenchmarkHuTucker(b *testing.B) {
	rng := stats.NewRNG(1)
	random := make([]float64, 1000)
	for i := range random {
		random[i] = float64(1 + rng.Intn(100))
	}
	for _, bc := range []struct {
		name    string
		weights []float64
	}{
		{"zipf1000", zipfWeights(1000)},
		{"random1000", random},
		{"zipf10000", zipfWeights(10000)},
	} {
		items := mkItems(bc.weights...)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := HuTucker(items); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHuTucker64(b *testing.B) {
	rng := stats.NewRNG(1)
	weights := make([]float64, 64)
	for i := range weights {
		weights[i] = float64(1 + rng.Intn(100))
	}
	items := mkItems(weights...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := HuTucker(items); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalKAry32(b *testing.B) {
	rng := stats.NewRNG(1)
	weights := make([]float64, 32)
	for i := range weights {
		weights[i] = float64(1 + rng.Intn(100))
	}
	items := mkItems(weights...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalKAry(items, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDepthLimitedBasics(t *testing.T) {
	items := mkItems(10, 1, 1, 1, 1, 1, 1, 10)
	// Generous budget: must match the unconstrained optimum.
	free, err := OptimalKAry(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := OptimalKAryDepthLimited(items, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if WeightedPathLength(loose) != WeightedPathLength(free) {
		t.Fatalf("loose budget WPL %g != unconstrained %g",
			WeightedPathLength(loose), WeightedPathLength(free))
	}
	// Tight budget: 8 items at fanout 2 need depth 3 exactly (a complete
	// binary tree), and every leaf must respect it.
	tight, err := OptimalKAryDepthLimited(items, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range tight.DataIDs() {
		if tight.Level(d)-1 > 3 {
			t.Fatalf("leaf %s at depth %d > 3", tight.Label(d), tight.Level(d)-1)
		}
	}
	if WeightedPathLength(tight) < WeightedPathLength(free) {
		t.Fatal("constrained tree beat the unconstrained optimum")
	}
	// Impossible budget errors.
	if _, err := OptimalKAryDepthLimited(items, 2, 2); err == nil {
		t.Fatal("want error: 8 items cannot fit in depth 2 at fanout 2")
	}
}

func TestDepthLimitedArgErrors(t *testing.T) {
	items := mkItems(1, 2)
	if _, err := OptimalKAryDepthLimited(items, 1, 3); err == nil {
		t.Fatal("want fanout error")
	}
	if _, err := OptimalKAryDepthLimited(items, 2, -1); err == nil {
		t.Fatal("want depth error")
	}
	single := mkItems(5)
	tr, err := OptimalKAryDepthLimited(single, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 {
		t.Fatal("single item should be a bare leaf at any budget")
	}
}

// Property: the depth-limited optimum preserves key order, respects the
// budget, is monotone in the budget, and meets the unconstrained DP when
// the budget is slack.
func TestQuickDepthLimited(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(10)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(50))
		}
		items := mkItems(weights...)
		k := 2 + rng.Intn(2)
		// Minimal feasible depth: ceil(log_k n).
		minD := 0
		for c := 1; c < n; c *= k {
			minD++
		}
		prev := math.Inf(1)
		for d := minD; d <= minD+3; d++ {
			tr, err := OptimalKAryDepthLimited(items, k, d)
			if err != nil {
				t.Logf("seed=%d n=%d k=%d d=%d: %v", seed, n, k, d, err)
				return false
			}
			for _, leaf := range tr.DataIDs() {
				if tr.Level(leaf)-1 > d {
					return false
				}
			}
			want := make([]string, n)
			for i := range items {
				want[i] = items[i].Label
			}
			if !sameOrder(inorderLeaves(tr), want) {
				return false
			}
			wpl := WeightedPathLength(tr)
			if wpl > prev+1e-9 {
				t.Logf("seed=%d: WPL increased with budget (%g -> %g at d=%d)", seed, prev, wpl, d)
				return false
			}
			prev = wpl
		}
		free, err := OptimalKAry(items, k)
		if err != nil {
			return false
		}
		slack, err := OptimalKAryDepthLimited(items, k, n)
		if err != nil {
			return false
		}
		return math.Abs(WeightedPathLength(slack)-WeightedPathLength(free)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
