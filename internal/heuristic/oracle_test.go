package heuristic

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/alphatree"
	"repro/internal/baseline"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

// allocateSortedOracle is the original AllocateSorted, kept as the
// reference the one-pass version must match level for level. Each slot
// rescans and re-copies the whole deferred list, and mergeBySeqOracle
// re-copies the overflow at every tree level, so it is quadratic.
//
// It runs Index Tree Sorting followed by the paper's
// 1_To_k_BroadcastChannel procedure to spread the sorted tree over k
// channels: the nodes of each tree level share one slot (channels 1..k in
// preorder-sequence order), with overflow merged into the next level's
// list by sequence number, and the final list dumped k per slot.
//
// The paper's pseudocode does not address the corner where a merged
// parent and its child would land in the same slot; we defer such a child
// to the next slot, preserving feasibility without changing conflict-free
// inputs.
func allocateSortedOracle(t *tree.Tree, k int) (*alloc.Allocation, error) {
	if k < 1 {
		return nil, fmt.Errorf("heuristic: %d channels", k)
	}
	// Sequence numbers are positions in the sorted preorder; level lists
	// hold each tree level's nodes in ascending sequence.
	order := SortedPreorder(t)
	seqOf := make([]int, t.NumNodes())
	for i, id := range order {
		seqOf[id] = i
	}
	lists := make([][]tree.ID, t.Depth()+2)
	for _, id := range order {
		l := t.Level(id)
		lists[l] = append(lists[l], id)
	}

	slotOf := make([]int, t.NumNodes())
	var levels [][]tree.ID
	emit := func(list []tree.ID) (slot []tree.ID, leftover []tree.ID) {
		inSlot := map[tree.ID]bool{}
		for _, id := range list {
			p := t.Parent(id)
			// Defer nodes whose parent is unplaced or in this very slot.
			if len(slot) < k && (p == tree.None || (slotOf[p] > 0 && !inSlot[p])) {
				slot = append(slot, id)
				inSlot[id] = true
				slotOf[id] = len(levels) + 1
				continue
			}
			leftover = append(leftover, id)
		}
		return slot, leftover
	}

	// Slot 1: the root alone (statement 4 of the procedure).
	levels = append(levels, []tree.ID{t.Root()})
	slotOf[t.Root()] = 1

	for level := 2; level <= t.Depth(); level++ {
		slot, leftover := emit(lists[level])
		if len(slot) > 0 {
			levels = append(levels, slot)
		}
		if len(leftover) > 0 {
			lists[level+1] = mergeBySeqOracle(seqOf, lists[level+1], leftover)
		}
	}
	// DumpList: keep packing the residue k per slot until exhausted.
	rest := lists[t.Depth()+1]
	for len(rest) > 0 {
		slot, leftover := emit(rest)
		if len(slot) == 0 {
			return nil, fmt.Errorf("heuristic: 1_To_k could not place %d nodes", len(rest))
		}
		levels = append(levels, slot)
		rest = leftover
	}
	return alloc.FromLevels(t, k, levels)
}

// mergeBySeqOracle merges two sequence-ordered lists, preserving ascending
// sorted-preorder positions.
func mergeBySeqOracle(seqOf []int, a, b []tree.ID) []tree.ID {
	out := make([]tree.ID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if seqOf[a[i]] <= seqOf[b[j]] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// polishOracle is the original Polish, kept as the reference the
// dirty-pair version must match: every pass runs every move on every slot
// pair, and every node's slot is renumbered after each Move-2 compound
// swap.
//
// It hill-climbs an allocation with the paper's exchange moves until
// a fixed point: whole adjacent compounds are swapped when no parent-child
// edge crosses them and the swap strictly lowers the weighted wait
// (Lemmas 1 and 2); single elements are pulled into earlier slots with
// free capacity (the left-compaction argument); and element pairs in
// adjacent slots are locally swapped when feasibility allows and the cost
// strictly drops (Lemma 4). The result is never worse than the input and
// empty slots are squeezed out.
//
// Polish turns any feasible allocation into a locally-exchange-optimal
// one, which makes it a cheap quality booster behind the Section 4.2
// heuristics on instances too large for exact search.
func polishOracle(a *alloc.Allocation) (*alloc.Allocation, bool, error) {
	t := a.Tree()
	k := a.Channels()
	levels := a.Levels()

	slotOf := make([]int, t.NumNodes())
	rebuildSlots := func() {
		for s, level := range levels {
			for _, id := range level {
				slotOf[id] = s + 1
			}
		}
	}
	rebuildSlots()

	// weight is the data weight of a slot (index nodes contribute zero).
	slotWeight := func(level []tree.ID) float64 {
		var w float64
		for _, id := range level {
			if t.IsData(id) {
				w += t.Weight(id)
			}
		}
		return w
	}
	// crossEdge reports a parent-child edge between two compounds.
	crossEdge := func(a, b []tree.ID) bool {
		for _, x := range a {
			for _, y := range b {
				if t.Parent(y) == x || t.Parent(x) == y {
					return true
				}
			}
		}
		return false
	}

	improvedAny := false
	for pass := 0; ; pass++ {
		improved := false

		// Move 1: pull any node into an earlier slot with free capacity.
		for s := 1; s < len(levels); s++ {
			if len(levels[s-1]) >= k {
				continue
			}
			for i := 0; i < len(levels[s]); i++ {
				id := levels[s][i]
				p := t.Parent(id)
				if p != tree.None && slotOf[p] >= s {
					continue
				}
				// Moving data earlier strictly improves; moving an index
				// node earlier is neutral in cost but can unlock later
				// moves, so only do it when it frees a whole slot.
				gain := t.IsData(id) && t.Weight(id) > 0
				freesSlot := len(levels[s]) == 1
				if !gain && !freesSlot {
					continue
				}
				levels[s-1] = append(levels[s-1], id)
				levels[s] = append(levels[s][:i], levels[s][i+1:]...)
				slotOf[id] = s
				improved = true
				i--
				if len(levels[s-1]) >= k {
					break
				}
			}
		}
		// Squeeze out emptied slots.
		out := levels[:0]
		for _, level := range levels {
			if len(level) > 0 {
				out = append(out, level)
			}
		}
		if len(out) != len(levels) {
			levels = out
			rebuildSlots()
			improved = true
		}

		// Move 2: swap whole adjacent compounds (global swap).
		for s := 1; s+1 < len(levels); s++ { // never move slot 1 (the root)
			a, b := levels[s], levels[s+1]
			if crossEdge(a, b) {
				continue
			}
			// Lemma 2: put the heavier compound first.
			if slotWeight(b) > slotWeight(a) {
				levels[s], levels[s+1] = b, a
				rebuildSlots()
				improved = true
			}
		}

		// Move 3: swap single elements across adjacent slots (local swap).
		for s := 0; s+1 < len(levels); s++ {
			for i := 0; i < len(levels[s]); i++ {
				x := levels[s][i]
				if x == t.Root() {
					continue
				}
				for j := 0; j < len(levels[s+1]); j++ {
					y := levels[s+1][j]
					// Feasibility (Lemma 4): y's parent strictly before
					// slot s+1's new home (s+1 → s), x's children after
					// slot s+2's new home, no direct edge x-y.
					if t.Parent(y) != tree.None && slotOf[t.Parent(y)] >= s+1 {
						continue
					}
					if t.Parent(y) == x || t.Parent(x) == y {
						continue
					}
					childBlocked := false
					for _, c := range t.Children(x) {
						if slotOf[c] <= s+2 {
							childBlocked = true
							break
						}
					}
					if childBlocked {
						continue
					}
					var wx, wy float64
					if t.IsData(x) {
						wx = t.Weight(x)
					}
					if t.IsData(y) {
						wy = t.Weight(y)
					}
					if wy <= wx {
						continue // no strict gain
					}
					levels[s][i], levels[s+1][j] = y, x
					slotOf[x], slotOf[y] = s+2, s+1
					improved = true
					x = levels[s][i]
				}
			}
		}

		if !improved {
			break
		}
		improvedAny = true
	}

	polished, err := alloc.FromLevels(t, k, levels)
	if err != nil {
		return nil, false, err
	}
	return polished, improvedAny, nil
}

// levelsOracle is the original Allocation.Levels: one At scan of every
// node per (slot, channel), O(slots·k·N).
func levelsOracle(a *alloc.Allocation) [][]tree.ID {
	out := make([][]tree.ID, a.NumSlots())
	for slot := 1; slot <= a.NumSlots(); slot++ {
		for ch := 1; ch <= a.Channels(); ch++ {
			if id := a.At(ch, slot); id != tree.None {
				out[slot-1] = append(out[slot-1], id)
			}
		}
	}
	return out
}

// oracleTrees returns the differential-test corpus: random shapes,
// full m-ary trees, Hu–Tucker catalogs under four weight profiles, and the
// single-node tree.
func oracleTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	var out []*tree.Tree
	add := func(tr *tree.Tree, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	for seed := int64(0); seed < 700; seed++ {
		rng := stats.NewRNG(seed)
		var dist stats.Dist = stats.Uniform{Lo: 1, Hi: 100}
		if seed%2 == 1 {
			dist = &stats.Zipf{Theta: 0.8}
		}
		add(workload.Random(workload.RandomConfig{
			NumData:   1 + rng.Intn(60),
			MaxFanout: 2 + rng.Intn(4),
			Dist:      dist,
		}, rng))
	}
	for m := 2; m <= 4; m++ {
		for depth := 2; depth <= 4; depth++ {
			add(workload.FullMAry(m, depth, stats.Normal{Mu: 100, Sigma: 30}, stats.NewRNG(int64(m*10+depth))))
		}
	}
	profiles := []func(rng *rand.Rand, i, n int) float64{
		func(_ *rand.Rand, i, _ int) float64 { return 1 / math.Pow(float64(i+1), 0.8) }, // key-ordered Zipf
		func(_ *rand.Rand, i, _ int) float64 { return 1 / math.Pow(float64(i+1), 0.8) }, // permuted below
		func(rng *rand.Rand, _, _ int) float64 { return rng.Float64() },
		func(rng *rand.Rand, _, _ int) float64 { return float64(rng.Intn(4)) }, // ties and zeros
	}
	for seed := int64(0); seed < 150; seed++ {
		rng := stats.NewRNG(1000 + seed)
		n := 1 + rng.Intn(200)
		if seed%100 == 0 {
			n = 1000 + rng.Intn(1000)
		}
		for pi, profile := range profiles {
			items := make([]alphatree.Item, n)
			for i := range items {
				items[i] = alphatree.Item{Label: fmt.Sprintf("K%d", i+1), Key: int64(i + 1), Weight: profile(rng, i, n)}
			}
			if pi == 1 {
				rng.Shuffle(n, func(i, j int) { items[i].Weight, items[j].Weight = items[j].Weight, items[i].Weight })
			}
			add(alphatree.HuTucker(items))
		}
	}
	add(workload.Random(workload.RandomConfig{NumData: 1}, stats.NewRNG(1)))
	return out
}

// sameOutcome fails unless two results agree: the same error text, or no
// error from either and identical level lists and positions.
func sameOutcome(t *testing.T, what string, got, want *alloc.Allocation, gerr, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) { //nolint:bcast-errsentinel // matching the oracle's message is the contract under test; these errors have no sentinel
		t.Fatalf("%s: error %v, oracle %v", what, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !reflect.DeepEqual(got.Levels(), want.Levels()) || got.String() != want.String() {
		t.Fatalf("%s: allocation\n%s\noracle\n%s", what, got, want)
	}
}

// withGaps returns a with empty slots inserted at random, the first slot
// included, for Levels and Polish's squeeze to handle.
func withGaps(t *testing.T, a *alloc.Allocation, rng *rand.Rand) *alloc.Allocation {
	t.Helper()
	shift := make([]int, a.NumSlots()+1)
	for s := 1; s <= a.NumSlots(); s++ {
		shift[s] = shift[s-1]
		if rng.Intn(3) == 0 {
			shift[s]++
		}
	}
	pos := make([]alloc.Position, a.Tree().NumNodes())
	for id := range pos {
		pos[id] = a.Pos(tree.ID(id))
		pos[id].Slot += shift[pos[id].Slot]
	}
	gapped, err := alloc.FromPositions(a.Tree(), a.Channels(), pos)
	if err != nil {
		t.Fatal(err)
	}
	return gapped
}

// checkLevels compares Levels with the At-scan oracle when the scan is
// affordable.
func checkLevels(t *testing.T, what string, a *alloc.Allocation) {
	t.Helper()
	if a.NumSlots()*a.Channels()*a.Tree().NumNodes() > 1e6 {
		return
	}
	if got, want := a.Levels(), levelsOracle(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Levels %v, At-scan oracle %v", what, got, want)
	}
}

// TestOracleDifferential: the one-pass 1_To_k procedure, the dirty-pair
// Polish and the bucketed Levels reproduce the original quadratic code
// exactly — the same levels, channels, improved flag and errors — on
// every corpus tree at k = 1..8, polishing the sorted allocation, a copy
// of it with empty slots, and (on small trees) a random feasible one.
// The original's "could not place" error is unreachable on a valid tree
// (the topmost unplaced ancestor of any unplaced node is always
// placeable), so the error check covers the channel-count error and the
// absence of errors.
func TestOracleDifferential(t *testing.T) {
	for _, k := range []int{0, -1} {
		_, gerr := AllocateSorted(tree.Fig1(), k)
		_, werr := allocateSortedOracle(tree.Fig1(), k)
		sameOutcome(t, fmt.Sprintf("k=%d", k), nil, nil, gerr, werr)
	}
	trees := oracleTrees(t)
	for ti, tr := range trees {
		rng := stats.NewRNG(int64(ti))
		for k := 1; k <= 8; k++ {
			what := fmt.Sprintf("tree %d (%d nodes) k=%d", ti, tr.NumNodes(), k)
			got, gerr := AllocateSorted(tr, k)
			want, werr := allocateSortedOracle(tr, k)
			sameOutcome(t, what+" AllocateSorted", got, want, gerr, werr)
			if gerr != nil {
				continue
			}

			inputs := []*alloc.Allocation{got, withGaps(t, got, rng)}
			if tr.NumNodes() <= 150 {
				raw, err := baseline.RandomFeasible(tr, k, rng)
				if err != nil {
					t.Fatal(err)
				}
				inputs = append(inputs, raw)
			}
			for ii, in := range inputs {
				checkLevels(t, fmt.Sprintf("%s input %d", what, ii), in)
				pg, gi, gerr := Polish(in)
				pw, wi, werr := polishOracle(in)
				sameOutcome(t, fmt.Sprintf("%s Polish input %d", what, ii), pg, pw, gerr, werr)
				if gi != wi {
					t.Fatalf("%s Polish input %d: improved %v, oracle %v", what, ii, gi, wi)
				}
				checkLevels(t, what+" polished", pg)
			}
		}
	}
	if len(trees) < 1000 {
		t.Fatalf("corpus holds %d trees", len(trees))
	}
}
