package heuristic

import (
	"repro/internal/alloc"
	"repro/internal/bitset"
	"repro/internal/tree"
)

// Polish hill-climbs an allocation with the paper's exchange moves until
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
//
// Each pass runs the three moves over the adjacent slot pairs in slot
// order, then repeats until a pass changes nothing, but it only visits
// the pairs where a move can now apply: every move reads and writes just
// the two slots of its pair (in a feasible allocation a node's parent sits
// in an earlier slot and its children in later ones, so each position
// test below only asks whether a parent or child is in the other slot),
// so a move that found nothing to do on a pair finds nothing again until
// one of its slots changes. A pass costs O(k²·m) for each pair it
// revisits plus a word scan of the dirty sets, instead of a sweep of every
// pair and an O(N) renumbering after each compound swap.
func Polish(a *alloc.Allocation) (*alloc.Allocation, bool, error) {
	t := a.Tree()
	k := a.Channels()
	levels := a.Levels()
	n := len(levels)

	// Slots keep their index in levels for the whole climb. A slot that
	// Move 1 empties is unlinked from the slot list at the next squeeze
	// instead of being removed, so no node ever needs renumbering; indices
	// grow along the list, so comparing them orders slots exactly as the
	// squeezed slot numbers would. next and prev link the live slots,
	// with n as the sentinel at both ends.
	next := make([]int, n+1)
	prev := make([]int, n+1)
	for s := 0; s <= n; s++ {
		next[s] = (s + 1) % (n + 1)
		prev[s] = (s + n) % (n + 1)
	}
	posOf := make([]int, t.NumNodes())
	var emptied []int // slots to squeeze: initially empty or emptied by Move 1
	for s, level := range levels {
		for _, id := range level {
			posOf[id] = s
		}
		if len(level) == 0 {
			emptied = append(emptied, s)
		}
	}

	// dirty[m] holds the slots s whose pair (s, next[s]) move m has to
	// check: every pair at first, then those with a slot that changed
	// since move m last found nothing to do there.
	var dirty [3]bitset.Set
	for m := range dirty {
		dirty[m] = bitset.New(n)
		for s := 0; s < n; s++ {
			dirty[m].Add(s)
		}
	}
	touch := func(s int) {
		for m := range dirty {
			dirty[m].Add(s)
			if prev[s] != n {
				dirty[m].Add(prev[s])
			}
		}
	}
	// pairs visits the dirty pairs of move m in slot order, clearing each
	// before fn runs so a change can mark it again for the next pass.
	pairs := func(m int, fn func(s, r int)) {
		for s := dirty[m].Next(0); s >= 0; s = dirty[m].Next(s + 1) {
			dirty[m].Remove(s)
			if r := next[s]; r != n {
				fn(s, r)
			}
		}
	}

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
	for {
		improved := false

		// Move 1: pull any node into an earlier slot with free capacity.
		pairs(0, func(s, r int) {
			if len(levels[s]) >= k {
				return
			}
			for i := 0; i < len(levels[r]); i++ {
				id := levels[r][i]
				p := t.Parent(id)
				if p != tree.None && posOf[p] >= s {
					continue
				}
				// Moving data earlier strictly improves; moving an index
				// node earlier is neutral in cost but can unlock later
				// moves, so only do it when it frees a whole slot.
				gain := t.IsData(id) && t.Weight(id) > 0
				freesSlot := len(levels[r]) == 1
				if !gain && !freesSlot {
					continue
				}
				levels[s] = append(levels[s], id)
				levels[r] = append(levels[r][:i], levels[r][i+1:]...)
				posOf[id] = s
				touch(s)
				touch(r)
				improved = true
				if len(levels[r]) == 0 {
					emptied = append(emptied, r)
				}
				i--
				if len(levels[s]) >= k {
					break
				}
			}
		})
		// Squeeze out emptied slots; the pair on the left of each gains a
		// new right side.
		for _, s := range emptied {
			if next[s] < 0 || len(levels[s]) > 0 {
				continue // already unlinked, or refilled by Move 1
			}
			l, r := prev[s], next[s]
			next[l], prev[r] = r, l
			next[s] = -1
			for m := range dirty {
				dirty[m].Remove(s)
				if l != n {
					dirty[m].Add(l)
				}
			}
			improved = true
		}
		emptied = emptied[:0]

		// Move 2: swap whole adjacent compounds (global swap).
		pairs(1, func(s, r int) {
			if prev[s] == n {
				return // never move slot 1 (the root)
			}
			a, b := levels[s], levels[r]
			if crossEdge(a, b) {
				return
			}
			// Lemma 2: put the heavier compound first.
			if slotWeight(b) > slotWeight(a) {
				levels[s], levels[r] = b, a
				for _, id := range b {
					posOf[id] = s
				}
				for _, id := range a {
					posOf[id] = r
				}
				touch(s)
				touch(r)
				improved = true
			}
		})

		// Move 3: swap single elements across adjacent slots (local swap).
		pairs(2, func(s, r int) {
			for i := 0; i < len(levels[s]); i++ {
				x := levels[s][i]
				if x == t.Root() {
					continue
				}
				for j := 0; j < len(levels[r]); j++ {
					y := levels[r][j]
					// Feasibility (Lemma 4): y's parent strictly before
					// slot s, x's children strictly after slot r, no
					// direct edge x-y.
					if t.Parent(y) != tree.None && posOf[t.Parent(y)] >= s {
						continue
					}
					if t.Parent(y) == x || t.Parent(x) == y {
						continue
					}
					childBlocked := false
					for _, c := range t.Children(x) {
						if posOf[c] <= r {
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
					levels[s][i], levels[r][j] = y, x
					posOf[x], posOf[y] = r, s
					touch(s)
					touch(r)
					improved = true
					x = levels[s][i]
				}
			}
		})

		if !improved {
			break
		}
		improvedAny = true
	}

	live := make([][]tree.ID, 0, n)
	for s := next[n]; s != n; s = next[s] {
		live = append(live, levels[s])
	}
	polished, err := alloc.FromLevels(t, k, live)
	if err != nil {
		return nil, false, err
	}
	return polished, improvedAny, nil
}
