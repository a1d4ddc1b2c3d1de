// Package hotset implements the first of the paper's three broadcast
// research categories (Section 1): determining the data for broadcasting.
// A server cannot push its whole database — it tracks access frequencies
// from the on-demand uplink, broadcasts the hottest items, and
// periodically re-evaluates, dropping items whose estimated frequency has
// decayed and promoting newly popular ones (the adaptive protocols of
// [DCK97] and the hybrid scheme of [SRB97]).
//
// The Estimator keeps an exponentially-decayed counter per key: an access
// adds 1, and all counters decay by the configured factor once per Tick
// (one "broadcast period"). Select returns the current top-n keys — the
// hot set to hand to the allocation machinery — and the estimator reports
// how much of the observed demand the chosen set covers.
package hotset

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Config tunes an Estimator.
type Config struct {
	// Decay multiplies every counter once per Tick; in (0, 1).
	// Defaults to 0.5.
	Decay float64
	// Floor drops counters that decay below it, bounding memory on
	// long-tailed key universes. Defaults to 0.01.
	Floor float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Decay == 0 {
		c.Decay = 0.5
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		return c, fmt.Errorf("hotset: decay %g, want in (0,1)", c.Decay)
	}
	if c.Floor == 0 {
		c.Floor = 0.01
	}
	if c.Floor < 0 {
		return c, fmt.Errorf("hotset: floor %g, want >= 0", c.Floor)
	}
	return c, nil
}

// Estimator tracks decayed access frequencies per key. All methods are
// safe for concurrent use.
//
// The counters live in one dense slice, indexed by key for Record and
// Estimate, so a period close is a linear pass over flat memory: Tick
// decays in place and swap-removes the counters that fall below the
// floor, and Select partially orders a copy to find the top n.
type Estimator struct {
	cfg Config

	mu sync.Mutex
	// counters holds every tracked key and its decayed frequency, in no
	// particular order; index maps a key to its position there.
	counters []HotKey
	index    map[int64]int32
	// scratch is Select's working copy of counters, kept between calls.
	scratch []HotKey
	ticks   int
}

// New returns an empty estimator.
func New(cfg Config) (*Estimator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Estimator{cfg: cfg, index: map[int64]int32{}}, nil
}

// Record counts one access to key (from the on-demand uplink).
func (e *Estimator) Record(key int64) {
	e.mu.Lock()
	e.add(key, 1)
	e.mu.Unlock()
}

// Add counts n accesses to key at once: the counter gains n in one
// addition. On a new or whole-number counter that equals n Records while
// the sum stays below 2⁵³, which is how a station seeds its prior. n must
// be positive and finite.
func (e *Estimator) Add(key int64, n float64) error {
	if !(n > 0) || math.IsInf(n, 1) {
		return fmt.Errorf("hotset: add %g accesses to key %d, want a positive finite count", n, key)
	}
	e.mu.Lock()
	e.add(key, n)
	e.mu.Unlock()
	return nil
}

// add raises key's counter by n, tracking the key if it is new. The
// caller holds e.mu.
func (e *Estimator) add(key int64, n float64) {
	if i, ok := e.index[key]; ok {
		e.counters[i].Weight += n
		return
	}
	e.index[key] = int32(len(e.counters))
	e.counters = append(e.counters, HotKey{Key: key, Weight: n})
}

// Tick ends one broadcast period: every counter decays, and counters
// below the floor are dropped.
func (e *Estimator) Tick() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ticks++
	for i := 0; i < len(e.counters); {
		v := e.counters[i].Weight * e.cfg.Decay
		if v >= e.cfg.Floor {
			e.counters[i].Weight = v
			i++
			continue
		}
		// Swap-remove: the last counter, not yet decayed, moves into slot
		// i and is visited next.
		delete(e.index, e.counters[i].Key)
		last := len(e.counters) - 1
		if i != last {
			e.counters[i] = e.counters[last]
			e.index[e.counters[i].Key] = int32(i)
		}
		e.counters = e.counters[:last]
	}
}

// Ticks returns how many periods have elapsed.
func (e *Estimator) Ticks() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ticks
}

// Estimate returns the decayed frequency of key (0 if unseen or decayed
// away).
func (e *Estimator) Estimate(key int64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i, ok := e.index[key]; ok {
		return e.counters[i].Weight
	}
	return 0
}

// Tracked returns how many keys currently hold a counter.
func (e *Estimator) Tracked() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.counters)
}

// HotKey is one selected key with its estimated frequency.
type HotKey struct {
	Key    int64
	Weight float64
}

// before is the selection order: heavier first, ties by ascending key.
// Keys are unique, so it is a strict total order.
func before(a, b HotKey) bool {
	return a.Weight > b.Weight || a.Weight == b.Weight && a.Key < b.Key
}

// rank is before as a three-way comparison, for slices.SortFunc.
func rank(a, b HotKey) int {
	switch {
	case before(a, b):
		return -1
	case before(b, a):
		return 1
	}
	return 0
}

// Select returns the top-n keys by decayed frequency (fewer if fewer are
// tracked), descending, ties broken by ascending key for determinism, and
// the coverage: the selected share of the total tracked frequency mass
// (1 when everything fits, 0 when nothing is tracked). The total is
// summed in counter order, which depends only on the history of Record,
// Add and Tick calls, so equal histories give equal coverage.
func (e *Estimator) Select(n int) (hot []HotKey, coverage float64) {
	if n <= 0 {
		return nil, 0
	}
	e.mu.Lock()
	var total float64
	for _, h := range e.counters {
		total += h.Weight
	}
	all := append(e.scratch[:0], e.counters...)
	if n < len(all) {
		selectTop(all, n)
	}
	hot = make([]HotKey, min(n, len(all)))
	copy(hot, all)
	e.scratch = all
	e.mu.Unlock()
	slices.SortFunc(hot, rank)
	var covered float64
	for _, h := range hot {
		covered += h.Weight
	}
	if total == 0 {
		return hot, 0
	}
	return hot, covered / total
}

// selectTop reorders s so that s[:n] holds its first n elements under
// before, in no particular order; 0 < n < len(s). It is quickselect with a
// median-of-three pivot, O(len(s)) on average. After 2·log₂(len(s))
// partitions it sorts what is left instead, which bounds the worst case
// at O(len(s)·log len(s)).
func selectTop(s []HotKey, n int) {
	k := n - 1 // s[k] ends up as the n-th ranked element
	lo, hi := 0, len(s)-1
	for budget := 2 * bits.Len(uint(len(s))); lo < hi; budget-- {
		if budget == 0 {
			slices.SortFunc(s[lo:hi+1], rank)
			return
		}
		// Order s[lo], s[mid], s[hi] so that s[hi] is their median and
		// serves as the pivot.
		mid := lo + (hi-lo)/2
		if before(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if before(s[hi], s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if before(s[mid], s[hi]) {
			s[mid], s[hi] = s[hi], s[mid]
		}
		pivot, i := s[hi], lo
		for j := lo; j < hi; j++ {
			if before(s[j], pivot) {
				s[i], s[j] = s[j], s[i]
				i++
			}
		}
		s[i], s[hi] = s[hi], s[i]
		switch {
		case k < i:
			hi = i - 1
		case k > i:
			lo = i + 1
		default:
			return
		}
	}
}

// Churn compares two selections and returns how many keys of prev were
// dropped in next — the instability measure that drives re-broadcast
// decisions (re-allocating too eagerly wastes the clients' cached index
// knowledge; too lazily serves a stale hot set).
func Churn(prev, next []HotKey) int {
	keep := make(map[int64]bool, len(next))
	for _, h := range next {
		keep[h.Key] = true
	}
	dropped := 0
	for _, h := range prev {
		if !keep[h.Key] {
			dropped++
		}
	}
	return dropped
}
