package alphatree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/pqueue"
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
		"OptimalKAry2":            func(it []Item) (*tree.Tree, error) { return OptimalKAry(it, 2) },
		"OptimalKAry3":            func(it []Item) (*tree.Tree, error) { return OptimalKAry(it, 3) },
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

// Property: Hu-Tucker equals the O(n³) DP optimum (OptimalKAry at k = 2) on
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
		opt, err := OptimalKAry(items, 2)
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

// pairCand is the best compatible pair of the segment that starts at
// slot start, cached until a merge bumps version[start].
type pairCand struct {
	sum     float64
	i, j    int32 // slots, i before j
	start   int32
	version uint32
}

// segmentScanCombine is the previous combination phase, kept as the
// oracle for combine at sizes the pair scan cannot reach. It returns the
// same combination tree as combine.
//
// The working sequence lives in flat slices indexed by slot: slot s holds
// the node item s started as, and a merge keeps its left slot and unlinks
// its right one, so slot order is sequence order and slot 0 is always the
// head. The sequence splits into segments: slot 0 or an external node,
// the internal nodes after it, and the next external node. Every
// compatible pair lies in exactly one segment, so the global best pair is
// the least of the segments' best pairs, which a heap caches. A merge
// changes only the segment holding its pair, joined to its neighbour
// across each external endpoint it consumes, and only that segment is
// rescanned.
func segmentScanCombine(items []Item) (left, right []int32) {
	n := len(items)
	w := make([]float64, n)
	ext := make([]bool, n)
	prev := make([]int32, n)
	next := make([]int32, n)
	node := make([]int32, n)
	version := make([]uint32, n)
	for s, it := range items {
		w[s], ext[s], node[s] = it.Weight, true, int32(s)
		prev[s], next[s] = int32(s-1), int32(s+1)
	}
	next[n-1] = -1
	left, right = make([]int32, n-1), make([]int32, n-1)
	segW := make([]float64, 0, n)
	segS := make([]int32, 0, n)

	// best scans the segment starting at slot start. fl(a+b) is monotone
	// in a and b, so the least sum pairing node a with a later node is
	// fl(w[a] + the minimum weight after a): a backward walk with that
	// suffix minimum finds the least sum and the first i reaching it, and
	// j is the first node after i reaching it with i. This is the
	// smallest (fl-sum, i, j), float rounding ties included.
	best := func(start int32) (pairCand, bool) {
		segW, segS = segW[:0], segS[:0]
		for s := start; s >= 0; s = next[s] {
			segW = append(segW, w[s])
			segS = append(segS, s)
			if ext[s] && s != start {
				break
			}
		}
		if len(segW) < 2 {
			return pairCand{}, false
		}
		sum, bi := math.Inf(1), 0
		sufMin := segW[len(segW)-1]
		for a := len(segW) - 2; a >= 0; a-- {
			if s := segW[a] + sufMin; s <= sum {
				sum, bi = s, a
			}
			if segW[a] < sufMin {
				sufMin = segW[a]
			}
		}
		bj := bi + 1
		for segW[bi]+segW[bj] != sum {
			bj++
		}
		return pairCand{sum: sum, i: segS[bi], j: segS[bj], start: start, version: version[start]}, true
	}

	q := pqueue.New(func(a, b pairCand) bool {
		if a.sum != b.sum {
			return a.sum < b.sum
		}
		if a.i != b.i {
			return a.i < b.i
		}
		return a.j < b.j
	})
	q.Reserve(2 * n)
	for s := int32(0); s < int32(n-1); s++ {
		c, _ := best(s)
		q.Push(c)
	}
	for k := 0; k < n-1; k++ {
		c := q.Pop()
		for c.version != version[c.start] {
			c = q.Pop()
		}
		i, j := c.i, c.j
		left[k], right[k] = node[i], node[j]
		node[i] = int32(n + k)
		w[i] += w[j]
		ext[i] = false
		next[prev[j]] = next[j]
		if next[j] >= 0 {
			prev[next[j]] = prev[j]
		}
		// A consumed external i joins the segment ending at i; a consumed
		// external j joins the segment starting at j, whose cached pair
		// dies with version[j].
		start := c.start
		if start == i && i != 0 {
			for start = prev[i]; start != 0 && !ext[start]; start = prev[start] {
			}
		}
		version[start]++
		version[j]++
		if c, ok := best(start); ok {
			q.Push(c)
		}
	}
	return left, right
}

// shapeFromLevels is the previous phase 3, kept as the tree oracle for
// checkLevels and emitLevels: stack reconstruction of the alphabetic tree
// whose leaves sit at the given levels into shapes, then toTree. It fails
// when no such tree exists.
func shapeFromLevels(items []Item, levels []int) (*tree.Tree, error) {
	type se struct {
		s     *shape
		level int
	}
	var stack []se
	for i := range items {
		stack = append(stack, se{&shape{leaf: i}, levels[i]})
		for len(stack) >= 2 && stack[len(stack)-1].level == stack[len(stack)-2].level {
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, se{
				s:     &shape{leaf: -1, children: []*shape{a.s, b.s}},
				level: a.level - 1,
			})
		}
	}
	if len(stack) != 1 || stack[0].level != 0 {
		return nil, fmt.Errorf("alphatree: Hu-Tucker reconstruction failed (stack %d, level %d)",
			len(stack), stack[0].level)
	}
	return toTree(items, stack[0].s, true)
}

// sortHuffman is the previous Huffman, kept as its oracle: it re-sorts
// every node by (weight, insertion order) before each merge.
func sortHuffman(items []Item) (*tree.Tree, error) {
	if err := validate(items, false); err != nil {
		return nil, err
	}
	type hn struct {
		w float64
		s *shape
		n int // insertion order for deterministic ties
	}
	nodes := make([]hn, len(items))
	for i, it := range items {
		nodes[i] = hn{w: it.Weight, s: &shape{leaf: i}, n: i}
	}
	next := len(items)
	for len(nodes) > 1 {
		// Select the two smallest (weight, order) nodes.
		sort.SliceStable(nodes, func(i, j int) bool {
			if nodes[i].w != nodes[j].w {
				return nodes[i].w < nodes[j].w
			}
			return nodes[i].n < nodes[j].n
		})
		a, b := nodes[0], nodes[1]
		merged := hn{
			w: a.w + b.w,
			s: &shape{leaf: -1, children: []*shape{a.s, b.s}},
			n: next,
		}
		next++
		nodes = append([]hn{merged}, nodes[2:]...)
	}
	return toTree(items, nodes[0].s, false)
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

// sameTree reports the first node where two trees differ in ID, kind,
// label, key, weight, parent or child order, or nil.
func sameTree(got, want *tree.Tree) error {
	if got.NumNodes() != want.NumNodes() || got.Root() != want.Root() {
		return fmt.Errorf("%d nodes rooted at %d, want %d rooted at %d",
			got.NumNodes(), got.Root(), want.NumNodes(), want.Root())
	}
	for id := tree.ID(0); int(id) < got.NumNodes(); id++ {
		gk, gok := got.Key(id)
		wk, wok := want.Key(id)
		switch {
		case got.Kind(id) != want.Kind(id), got.Label(id) != want.Label(id),
			gk != wk, gok != wok, got.Weight(id) != want.Weight(id), got.Parent(id) != want.Parent(id):
			return fmt.Errorf("node %d is %v %q key %d/%v weight %g parent %d, want %v %q key %d/%v weight %g parent %d",
				id, got.Kind(id), got.Label(id), gk, gok, got.Weight(id), got.Parent(id),
				want.Kind(id), want.Label(id), wk, wok, want.Weight(id), want.Parent(id))
		case !slices.Equal(got.Children(id), want.Children(id)):
			return fmt.Errorf("node %d has children %v, want %v", id, got.Children(id), want.Children(id))
		}
	}
	return nil
}

// checkAgainstOracles holds HuTucker on weights to the oracles: its
// combination phase makes the same merges as the segment scan and, when
// pairScan is set, the all-pairs scan, and its tree is the shape-based
// reconstruction of the oracle's levels node for node, or an error
// exactly where those levels are unrealizable. It returns HuTucker's
// error.
func checkAgainstOracles(t testing.TB, name string, weights []float64, pairScan bool) error {
	t.Helper()
	items := mkItems(weights...)
	wantL, wantR := segmentScanCombine(items)
	oracles := []string{"segment scan"}
	if pairScan {
		pl, pr := pairScanCombine(weights)
		if !slices.Equal(pl, wantL) || !slices.Equal(pr, wantR) {
			t.Fatalf("%s (n=%d): the segment scan and the pair scan disagree", name, len(weights))
		}
		oracles = append(oracles, "pair scan")
	}
	gotL, gotR := combine(items)
	for k := range wantL {
		if gotL[k] != wantL[k] || gotR[k] != wantR[k] {
			t.Fatalf("%s (n=%d): merge %d joins (%d, %d), %v join (%d, %d)",
				name, len(weights), k, gotL[k], gotR[k], oracles, wantL[k], wantR[k])
		}
	}
	want, wantErr := shapeFromLevels(items, combinationLevels(len(weights), wantL, wantR))
	got, err := HuTucker(items)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: HuTucker error %v, oracle levels error %v", name, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() { //nolint:bcast-errsentinel // matching the oracle's message is the contract under test; these errors have no sentinel
			t.Fatalf("%s: HuTucker error %q, oracle error %q", name, err, wantErr)
		}
		return err
	}
	if diff := sameTree(got, want); diff != nil {
		t.Fatalf("%s (n=%d): tree differs from the shape-based oracle: %v", name, len(weights), diff)
	}
	return nil
}

// tieFailures pins the instances of TestHuTuckerMatchesPairScan on which
// rounding in the combination phase's sums leaves levels no alphabetic
// tree realizes (ROADMAP item 9): 55 of the 1,500 ulp-family seeds, and
// none in any other family. Fixing them changes trees, so until then a
// seed may neither join nor leave this list silently.
var tieFailures = map[string][]int64{
	"ulp": {6, 43, 151, 166, 167, 200, 205, 214, 219, 228, 237, 272, 275, 293, 328,
		343, 370, 372, 421, 425, 509, 529, 530, 555, 577, 593, 653, 672, 737, 739,
		765, 779, 875, 880, 903, 918, 928, 952, 989, 1043, 1047, 1083, 1109, 1133, 1150,
		1179, 1210, 1212, 1272, 1299, 1309, 1340, 1347, 1361, 1451},
}

// TestHuTuckerMatchesPairScan holds HuTucker to the all-pairs scan and the
// segment scan it replaced: the same merges in the same order, so the same
// leaf levels and, since an alphabetic tree is fixed by its leaf levels,
// the same tree, or the same reconstruction error where rounding left the
// levels unrealizable. The families stress the tie order: uniform floats,
// small integers with zeros and many exact ties, powers 2^-k over 120
// binades (fl(a+b) == a whenever b is more than 53 binades below), weights
// a few ulps apart (unequal pairs whose sums round to one value), lookup's
// monotone Zipf(0.8) catalog, and a few large random instances.
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
	for _, f := range families {
		var failed []int64
		for seed := int64(0); seed < 1500; seed++ {
			rng := stats.NewRNG(seed)
			weights := make([]float64, 2+rng.Intn(63))
			for i := range weights {
				weights[i] = f.gen(rng)
			}
			if checkAgainstOracles(t, fmt.Sprintf("%s/seed=%d", f.name, seed), weights, true) != nil {
				failed = append(failed, seed)
			}
		}
		if want := tieFailures[f.name]; !slices.Equal(failed, want) {
			t.Errorf("%s: reconstruction fails on %d seeds %v, want %d seeds %v",
				f.name, len(failed), failed, len(want), want)
		}
	}
	if checkAgainstOracles(t, "zipf0.8/n=1000", zipfWeights(1000), true) != nil {
		t.Error("zipf0.8/n=1000: reconstruction failed")
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := stats.NewRNG(seed)
		f := families[seed%int64(len(families))]
		weights := make([]float64, 2+rng.Intn(1999))
		for i := range weights {
			weights[i] = f.gen(rng)
		}
		if checkAgainstOracles(t, fmt.Sprintf("%s/large/seed=%d", f.name, seed), weights, true) != nil {
			t.Errorf("%s/large/seed=%d: reconstruction failed", f.name, seed)
		}
	}
}

// permuted returns w shuffled by a seeded source.
func permuted(w []float64, seed int64) []float64 {
	p := slices.Clone(w)
	rng := stats.NewRNG(seed)
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// TestHuTuckerMatchesSegmentScan compares HuTucker with the segment scan
// on the Zipf(0.8) catalogs the station airs, key-ordered (long segments,
// where the scan was quadratic) and permuted, at 10³ and 10⁴ keys, sizes
// the O(n³) pair scan cannot reach.
func TestHuTuckerMatchesSegmentScan(t *testing.T) {
	for _, n := range []int{1000, 10000} {
		w := zipfWeights(n)
		for _, c := range []struct {
			order   string
			weights []float64
		}{{"ordered", w}, {"permuted", permuted(w, 1)}} {
			name := fmt.Sprintf("zipf0.8/%s/n=%d", c.order, n)
			if err := checkAgainstOracles(t, name, c.weights, false); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// fuzzWeights decodes fuzz bytes into at most 96 weights drawn from the
// families where rounding ties live: zeros, small integers, powers of two
// and ulp neighbours of 1, 2, 4 and 8.
func fuzzWeights(data []byte) []float64 {
	if len(data) > 96 {
		data = data[:96]
	}
	w := make([]float64, len(data))
	for i, b := range data {
		switch v := int(b & 0x3f); b >> 6 {
		case 0:
			w[i] = 0
		case 1:
			w[i] = float64(v % 8)
		case 2:
			w[i] = math.Ldexp(1, -v)
		default:
			w[i] = math.Ldexp(1+float64(v&7)*0x1p-52, v>>3&3)
		}
	}
	return w
}

// FuzzHuTucker holds HuTucker to the pair scan and the shape-based
// reconstruction on decoded weights: the same merges, the same tree, and
// an error exactly where the oracle's levels are unrealizable.
func FuzzHuTucker(f *testing.F) {
	f.Add([]byte{0x41})
	f.Add([]byte{0x41, 0x42, 0x43, 0x41})
	f.Add([]byte{0x00, 0x00, 0x40, 0x81, 0xbf})
	f.Add([]byte{0xc0, 0xc8, 0xc1, 0xd0, 0xc9, 0xc2, 0xd8, 0xc0})
	f.Add([]byte{0x80, 0x81, 0x82, 0xb5, 0x80, 0xbf, 0xb4, 0x81})
	// The weights of ulp seed 6 in tieFailures: unrealizable levels.
	f.Add([]byte{0xd3, 0xca, 0xd3, 0xc2, 0xc3, 0xd3, 0xd3, 0xd1, 0xc3, 0xd1, 0xd1, 0xc9, 0xc0, 0xca, 0xc2, 0xc0, 0xd2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if w := fuzzWeights(data); len(w) > 0 {
			_ = checkAgainstOracles(t, fmt.Sprintf("%x", data), w, true)
		}
	})
}

// TestHuffmanMatchesSortOracle holds the heap Huffman to the sort-per-merge
// original: the same tree node for node, ties included.
func TestHuffmanMatchesSortOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := stats.NewRNG(seed)
		weights := make([]float64, 1+rng.Intn(80))
		for i := range weights {
			weights[i] = float64(rng.Intn(6))
		}
		items := mkItems(weights...)
		got, err := Huffman(items)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sortHuffman(items)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameTree(got, want); diff != nil {
			t.Fatalf("seed=%d weights=%v: %v", seed, weights, diff)
		}
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
		{"zipf1000perm", permuted(zipfWeights(1000), 1)},
		{"random1000", random},
		{"zipf10000", zipfWeights(10000)},
		{"zipf100000", zipfWeights(100000)},
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
