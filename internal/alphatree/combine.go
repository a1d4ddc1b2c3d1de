package alphatree

import "math"

// combine runs Hu–Tucker's combination phase on n ≥ 2 items and returns
// the combination tree: merge k joins nodes left[k] and right[k] into
// node n+k, where node ids below n are the items. Each step merges the
// compatible pair (no external node strictly between them) with the
// smallest (fl(w[i]+w[j]), i, j), positions in sequence order.
//
// The working sequence lives in slots: slot s holds the node item s
// started as, and a merge keeps its left slot and empties its right one,
// so slot order is sequence order and slot 0 is always the head. The
// sequence splits into segments: slot 0 or an external slot, the internal
// slots after it, and the next external slot (or the end). Every
// compatible pair lies in exactly one segment, and the best pairs of two
// segments order by their starts when their sums tie, so the global best
// pair is the least segment sum, leftmost start first. Three structures
// keep every merge O(log n):
//   - weights, a min tree over the slots' weights (+Inf once emptied),
//     finds a segment's best pair in a constant number of descents;
//   - nextExt and prevStart, path-halving tables, lead from a slot to the
//     next external slot and back to the segment start before it, which
//     gives a segment's ends;
//   - starts, a tournament tree over slots, holds each segment start's
//     best pair sum (+Inf for a slot that starts no pair) and yields the
//     least.
//
// A merge changes only the segment holding its pair, joined to its
// neighbour across each external endpoint it consumes, so it re-evaluates
// that one segment and retires at most two starts.
func combine(items []Item) (left, right []int32) {
	n := len(items)
	inf := math.Inf(1)
	w := make([]float64, n)
	for s, it := range items {
		w[s] = it.Weight
	}
	weights := newMinTree(w)

	// A slot is external exactly while nextExt[s] == s; nextExt[n] is the
	// end sentinel. prevStart also keeps slot 0, the head, as a root.
	nextExt := make([]int32, n+1)
	prevStart := make([]int32, n)
	node := make([]int32, n)
	for s := range nextExt {
		nextExt[s] = int32(s)
	}
	for s := range prevStart {
		prevStart[s], node[s] = int32(s), int32(s)
	}

	// Every slot starts as an external item, so the segment of start s is
	// the pair (s, s+1).
	pairs := make([][2]int32, n)
	sums := make([]float64, n)
	for s := 0; s < n; s++ {
		sums[s] = inf
		if s+1 < n {
			sums[s] = w[s] + w[s+1]
			pairs[s] = [2]int32{int32(s), int32(s + 1)}
		}
	}
	starts := newTournament(sums)

	evaluate := func(s int32) {
		end := leap(nextExt, s+1)
		if end == int32(n) {
			end = int32(n - 1)
		}
		sum, i, j := weights.bestPair(int(s), int(end))
		if i >= 0 {
			pairs[s] = [2]int32{int32(i), int32(j)}
		}
		starts.set(int(s), sum)
	}

	left, right = make([]int32, n-1), make([]int32, n-1)
	for k := 0; k < n-1; k++ {
		start := starts.min()
		i, j := pairs[start][0], pairs[start][1]
		left[k], right[k] = node[i], node[j]
		node[i] = int32(n + k)
		weights.set(int(i), weights.at(int(i))+weights.at(int(j)))
		weights.set(int(j), inf)
		// A consumed external j leaves, and the segment it started joins
		// this one.
		if nextExt[j] == j {
			nextExt[j], prevStart[j] = j+1, j-1
			starts.set(int(j), inf)
		}
		// A consumed external i turns internal; unless it is the head, the
		// segment it started joins the one ending at i.
		if nextExt[i] == i {
			nextExt[i] = i + 1
			if i != 0 {
				prevStart[i] = i - 1
				starts.set(int(i), inf)
				start = leap(prevStart, i)
			}
		}
		evaluate(start)
	}
	return left, right
}

// leap follows t from s to the first s' with t[s'] == s', halving the path
// on the way.
func leap(t []int32, s int32) int32 {
	for t[s] != s {
		t[s] = t[t[s]]
		s = t[s]
	}
	return s
}

// minTree is a bottom-up segment tree of slot weights: leaf size+s holds
// slot s's weight and every inner node the least weight below it.
// Padding leaves hold +Inf.
type minTree struct {
	size int
	v    []float64
}

func newMinTree(w []float64) minTree {
	size := 1
	for size < len(w) {
		size *= 2
	}
	v := make([]float64, 2*size)
	copy(v[size:], w)
	for x := size + len(w); x < 2*size; x++ {
		v[x] = math.Inf(1)
	}
	for x := size - 1; x >= 1; x-- {
		v[x] = min(v[2*x], v[2*x+1])
	}
	return minTree{size: size, v: v}
}

func (t minTree) at(s int) float64 { return t.v[t.size+s] }

func (t minTree) set(s int, w float64) {
	x := t.size + s
	t.v[x] = w
	for x > 1 {
		x >>= 1
		t.v[x] = min(t.v[2*x], t.v[2*x+1])
	}
}

// rangeMin returns the least weight of slots lo..hi, +Inf when empty.
func (t minTree) rangeMin(lo, hi int) float64 {
	m := math.Inf(1)
	for l, r := lo+t.size, hi+t.size+1; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			m = min(m, t.v[l])
			l++
		}
		if r&1 == 1 {
			r--
			m = min(m, t.v[r])
		}
	}
	return m
}

// first returns the leftmost slot of lo..hi whose weight w has
// fl(w+c) <= s, or -1. fl(·+c) is monotone, so a subtree holds such a
// slot exactly when its least weight does.
func (t minTree) first(lo, hi int, c, s float64) int {
	var rights [64]int // right-hand cover nodes, rightmost first
	nr := 0
	for l, r := lo+t.size, hi+t.size+1; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			if t.v[l]+c <= s {
				return t.descend(l, c, s)
			}
			l++
		}
		if r&1 == 1 {
			r--
			rights[nr] = r
			nr++
		}
	}
	for nr > 0 {
		nr--
		if x := rights[nr]; t.v[x]+c <= s {
			return t.descend(x, c, s)
		}
	}
	return -1
}

// descend returns the leftmost slot under node x whose weight w has
// fl(w+c) <= s; x's least weight must have it.
func (t minTree) descend(x int, c, s float64) int {
	for x < t.size {
		x *= 2
		if !(t.v[x]+c <= s) {
			x++
		}
	}
	return x - t.size
}

// bestPair returns the least (fl(w[i]+w[j]), i, j) with lo <= i < j <= hi,
// or (+Inf, -1, -1) when the range holds fewer than two live slots.
//
// fl(a+b) is monotone in a and b, so with m1 the least weight and m2 the
// least once one slot holding m1 is set aside, no pair sums below
// S = fl(m1+m2). A slot pairs to S with some other slot exactly when its
// weight w has fl(w+m1) <= S (the slot holding m1 pairs with m2's), and
// the leftmost such slot has its partner to its right: that is i, and j
// is the leftmost slot after i with fl(w+w[i]) <= S. This is exact under
// float rounding ties.
func (t minTree) bestPair(lo, hi int) (sum float64, i, j int) {
	m1 := t.rangeMin(lo, hi)
	p := t.first(lo, hi, 0, m1)
	m2 := min(t.rangeMin(lo, p-1), t.rangeMin(p+1, hi))
	if math.IsInf(m2, 1) {
		return m2, -1, -1
	}
	sum = m1 + m2
	i = t.first(lo, hi, m1, sum)
	j = t.first(i+1, hi, t.at(i), sum)
	return sum, i, j
}

// tournament is a bottom-up tournament tree over keyed leaves: win[x] is
// the leaf with the least key under node x, the leftmost on ties.
type tournament struct {
	size int
	key  []float64
	win  []int32
}

func newTournament(keys []float64) tournament {
	size := 1
	for size < len(keys) {
		size *= 2
	}
	t := tournament{size: size, key: make([]float64, size), win: make([]int32, 2*size)}
	copy(t.key, keys)
	for x := len(keys); x < size; x++ {
		t.key[x] = math.Inf(1)
	}
	for x := 0; x < size; x++ {
		t.win[size+x] = int32(x)
	}
	for x := size - 1; x >= 1; x-- {
		t.play(x)
	}
	return t
}

func (t tournament) play(x int) {
	a, b := t.win[2*x], t.win[2*x+1]
	if t.key[b] < t.key[a] {
		a = b
	}
	t.win[x] = a
}

// min returns the leaf with the least key.
func (t tournament) min() int32 { return t.win[1] }

func (t tournament) set(leaf int, key float64) {
	t.key[leaf] = key
	for x := (t.size + leaf) >> 1; x >= 1; x >>= 1 {
		t.play(x)
	}
}
