package hotset

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func mustNew(t *testing.T, cfg Config) *Estimator {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Decay: 1.5}); err == nil {
		t.Fatal("want error for decay > 1")
	}
	if _, err := New(Config{Decay: -0.1}); err == nil {
		t.Fatal("want error for negative decay")
	}
	if _, err := New(Config{Floor: -1}); err == nil {
		t.Fatal("want error for negative floor")
	}
	if _, err := New(Config{}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

func TestRecordAndEstimate(t *testing.T) {
	e := mustNew(t, Config{})
	for i := 0; i < 5; i++ {
		e.Record(42)
	}
	e.Record(7)
	if got := e.Estimate(42); got != 5 {
		t.Fatalf("Estimate(42) = %g, want 5", got)
	}
	if got := e.Estimate(7); got != 1 {
		t.Fatalf("Estimate(7) = %g, want 1", got)
	}
	if got := e.Estimate(999); got != 0 {
		t.Fatalf("Estimate(999) = %g, want 0", got)
	}
	if e.Tracked() != 2 {
		t.Fatalf("Tracked = %d", e.Tracked())
	}
}

func TestDecayAndFloor(t *testing.T) {
	e := mustNew(t, Config{Decay: 0.5, Floor: 0.3})
	e.Record(1) // counter 1
	e.Tick()    // 0.5
	if got := e.Estimate(1); got != 0.5 {
		t.Fatalf("after one tick: %g", got)
	}
	e.Tick() // 0.25 < floor -> dropped
	if got := e.Estimate(1); got != 0 {
		t.Fatalf("counter not dropped: %g", got)
	}
	if e.Tracked() != 0 {
		t.Fatalf("Tracked = %d after floor drop", e.Tracked())
	}
	if e.Ticks() != 2 {
		t.Fatalf("Ticks = %d", e.Ticks())
	}
}

func TestSelectTopN(t *testing.T) {
	e := mustNew(t, Config{})
	for key, count := range map[int64]int{10: 7, 20: 3, 30: 9, 40: 1} {
		for i := 0; i < count; i++ {
			e.Record(key)
		}
	}
	hot, coverage := e.Select(2)
	if len(hot) != 2 || hot[0].Key != 30 || hot[1].Key != 10 {
		t.Fatalf("Select(2) = %v", hot)
	}
	want := 16.0 / 20.0
	if coverage != want {
		t.Fatalf("coverage = %g, want %g", coverage, want)
	}
	// Selecting more than tracked returns everything at full coverage.
	all, coverage := e.Select(10)
	if len(all) != 4 || coverage != 1 {
		t.Fatalf("Select(10) = %v coverage %g", all, coverage)
	}
	if got, cov := e.Select(0); got != nil || cov != 0 {
		t.Fatalf("Select(0) = %v, %g", got, cov)
	}
}

func TestSelectTieBreakDeterministic(t *testing.T) {
	e := mustNew(t, Config{})
	e.Record(5)
	e.Record(3)
	e.Record(9)
	hot, _ := e.Select(2)
	if hot[0].Key != 3 || hot[1].Key != 5 {
		t.Fatalf("tie break not by ascending key: %v", hot)
	}
}

func TestChurn(t *testing.T) {
	prev := []HotKey{{Key: 1}, {Key: 2}, {Key: 3}}
	next := []HotKey{{Key: 2}, {Key: 4}}
	if got := Churn(prev, next); got != 2 {
		t.Fatalf("Churn = %d, want 2 (dropped 1 and 3)", got)
	}
	if got := Churn(nil, next); got != 0 {
		t.Fatalf("Churn(nil, ...) = %d", got)
	}
	if got := Churn(prev, nil); got != 3 {
		t.Fatalf("Churn(..., nil) = %d", got)
	}
}

// TestHotSetAdapts: a shifted workload replaces the hot set within a few
// periods — the [DCK97] adaptive story.
func TestHotSetAdapts(t *testing.T) {
	e := mustNew(t, Config{Decay: 0.5})
	// Era 1: keys 1..5 dominate.
	for period := 0; period < 3; period++ {
		for key := int64(1); key <= 5; key++ {
			for i := 0; i < 20; i++ {
				e.Record(key)
			}
		}
		e.Tick()
	}
	hot1, _ := e.Select(5)
	for _, h := range hot1 {
		if h.Key > 5 {
			t.Fatalf("era-1 hot set contains %d", h.Key)
		}
	}
	// Era 2: keys 11..15 take over completely.
	for period := 0; period < 6; period++ {
		for key := int64(11); key <= 15; key++ {
			for i := 0; i < 20; i++ {
				e.Record(key)
			}
		}
		e.Tick()
	}
	hot2, coverage := e.Select(5)
	for _, h := range hot2 {
		if h.Key < 11 {
			t.Fatalf("era-2 hot set still contains %d (coverage %g)", h.Key, coverage)
		}
	}
	if Churn(hot1, hot2) != 5 {
		t.Fatalf("expected full churn, got %d", Churn(hot1, hot2))
	}
	if coverage < 0.95 {
		t.Fatalf("era-2 coverage = %g", coverage)
	}
}

func TestConcurrentRecording(t *testing.T) {
	e := mustNew(t, Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				e.Record(int64(i % 17))
				if i%100 == 0 {
					e.Select(5)
					e.Tick()
				}
			}
		}(g)
	}
	wg.Wait()
	if e.Tracked() == 0 {
		t.Fatal("all counters lost")
	}
}

// Property: under a stable weighted workload, Select(n) returns the true
// top-n keys and coverage grows monotonically with n.
func TestQuickSelectMatchesTrueTopN(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		e, err := New(Config{})
		if err != nil {
			return false
		}
		universe := 5 + rng.Intn(20)
		counts := make(map[int64]int, universe)
		for key := 0; key < universe; key++ {
			c := 1 + rng.Intn(50)
			counts[int64(key)] = c
			for i := 0; i < c; i++ {
				e.Record(int64(key))
			}
		}
		prevCoverage := 0.0
		for n := 1; n <= universe; n++ {
			hot, coverage := e.Select(n)
			if len(hot) != n {
				return false
			}
			if coverage < prevCoverage-1e-12 {
				return false
			}
			prevCoverage = coverage
			// Every selected key's count must be >= every excluded key's.
			minSelected := hot[len(hot)-1].Weight
			selected := map[int64]bool{}
			for _, h := range hot {
				selected[h.Key] = true
			}
			for key, c := range counts {
				if !selected[key] && float64(c) > minSelected {
					return false
				}
			}
		}
		return prevCoverage > 0.999999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// mapEstimator is the estimator before its counters became a dense
// slice: a map decayed in place and a full sort.Slice per Select. It is
// the oracle the dense store is held to.
type mapEstimator struct {
	cfg      Config
	counters map[int64]float64
}

func newMapEstimator(t testing.TB, cfg Config) *mapEstimator {
	t.Helper()
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return &mapEstimator{cfg: cfg, counters: map[int64]float64{}}
}

func (e *mapEstimator) Record(key int64) { e.counters[key]++ }

func (e *mapEstimator) Tick() {
	for k, v := range e.counters {
		v *= e.cfg.Decay
		if v < e.cfg.Floor {
			delete(e.counters, k)
			continue
		}
		e.counters[k] = v
	}
}

func (e *mapEstimator) Select(n int) (hot []HotKey, coverage float64) {
	if n <= 0 {
		return nil, 0
	}
	all := make([]HotKey, 0, len(e.counters))
	var total float64
	for k, v := range e.counters {
		all = append(all, HotKey{Key: k, Weight: v})
		total += v
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Weight != all[j].Weight {
			return all[i].Weight > all[j].Weight
		}
		return all[i].Key < all[j].Key
	})
	if len(all) > n {
		all = all[:n]
	}
	var covered float64
	for _, h := range all {
		covered += h.Weight
	}
	if total == 0 {
		return all, 0
	}
	return all, covered / total
}

// sameSelection reports whether got equals want key for key, weight for
// weight and in order (nil and empty differ).
func sameSelection(got, want []HotKey) bool {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// checkAgainstOracle compares every read of e with the oracle's at the
// n values the selection edge cases live at.
func checkAgainstOracle(t *testing.T, e *Estimator, o *mapEstimator, rng *rand.Rand) {
	t.Helper()
	tracked := len(o.counters)
	if e.Tracked() != tracked {
		t.Fatalf("Tracked = %d, oracle %d", e.Tracked(), tracked)
	}
	for k, v := range o.counters {
		if got := e.Estimate(k); got != v {
			t.Fatalf("Estimate(%d) = %v, oracle %v", k, got, v)
		}
	}
	for _, n := range []int{-1, 0, 1, 2, tracked - 1, tracked, tracked + 1, 1 + rng.Intn(tracked+2)} {
		got, gotCov := e.Select(n)
		want, wantCov := o.Select(n)
		if !sameSelection(got, want) {
			t.Fatalf("Select(%d) of %d tracked:\n got %v\nwant %v", n, tracked, got, want)
		}
		// The oracle sums its total in map order, so coverage agrees only
		// to rounding.
		if math.Abs(gotCov-wantCov) > 1e-12 {
			t.Fatalf("Select(%d) coverage %v, oracle %v", n, gotCov, wantCov)
		}
	}
}

// TestSelectMatchesMapOracle drives the estimator and the map oracle
// through the same seeded Record/Tick histories. Small key universes
// and integer counts under Decay 0.5 make weight ties common; a high
// floor drops counters every few ticks, in every slot of the dense
// store. Every fiftieth history runs over thousands of keys, so the
// quickselect partitions many times.
func TestSelectMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Decay: []float64{0.5, 0.3, 0.9}[seed%3], Floor: []float64{0.01, 0.4, 2}[seed%3]}
		e := mustNew(t, cfg)
		o := newMapEstimator(t, cfg)
		universe := 1 + rng.Intn(60)
		if seed%50 == 0 {
			universe = 1000 + rng.Intn(2000)
		}
		for period := 0; period < 12; period++ {
			for i := rng.Intn(4 * universe); i > 0; i-- {
				key := int64(rng.Intn(universe))
				e.Record(key)
				o.Record(key)
			}
			checkAgainstOracle(t, e, o, rng)
			e.Tick()
			o.Tick()
			checkAgainstOracle(t, e, o, rng)
		}
	}
}

// TestTickSwapRemove pins the dense store's removal cases: the last slot
// dropping (nothing moves), and a dropped slot whose replacement from
// the end must drop too.
func TestTickSwapRemove(t *testing.T) {
	e := mustNew(t, Config{Decay: 0.5, Floor: 1})
	for key, count := range []int{8, 8, 1} { // key 2, in the last slot, drops
		for i := 0; i < count; i++ {
			e.Record(int64(key))
		}
	}
	e.Tick()
	if e.Tracked() != 2 || e.Estimate(0) != 4 || e.Estimate(1) != 4 || e.Estimate(2) != 0 {
		t.Fatalf("after dropping the last slot: tracked %d, estimates %v %v %v",
			e.Tracked(), e.Estimate(0), e.Estimate(1), e.Estimate(2))
	}
	// Slots now hold 0:4, 1:4; add 2:1 and 3:1. Key 0 stays, key 1 stays,
	// keys 2 and 3 drop: key 3 moves into key 2's slot and drops in turn.
	e.Record(2)
	e.Record(3)
	e.Tick()
	if got, _ := e.Select(10); !sameSelection(got, []HotKey{{0, 2}, {1, 2}}) {
		t.Fatalf("after chained drops: %v", got)
	}
	// Slot 0 drops with a survivor moved into it; re-recording a dropped
	// key tracks it afresh.
	e.Record(1)
	e.Record(1)
	e.Tick() // key 0: 1 stays (not below floor); key 1: 2
	e.Tick() // key 0: 0.5 drops, key 1 (1) moves into slot 0 and stays
	e.Record(0)
	if got, _ := e.Select(10); !sameSelection(got, []HotKey{{0, 1}, {1, 1}}) {
		t.Fatalf("after slot-0 drop and re-record: %v", got)
	}
}

// TestAddEqualsRecords: one Add of n on a fresh or whole-number counter
// equals n Records, which is what seeding a station's prior relies on.
func TestAddEqualsRecords(t *testing.T) {
	added, recorded := mustNew(t, Config{}), mustNew(t, Config{})
	rng := rand.New(rand.NewSource(1))
	for key := int64(0); key < 200; key++ {
		for round := 0; round < 3; round++ {
			n := 1 + rng.Intn(500)
			if err := added.Add(key, float64(n)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				recorded.Record(key)
			}
		}
	}
	got, gotCov := added.Select(50)
	want, wantCov := recorded.Select(50)
	if !sameSelection(got, want) || gotCov != wantCov {
		t.Fatalf("Add selection %v (%v), Records %v (%v)", got, gotCov, want, wantCov)
	}
	for _, n := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := added.Add(7, n); err == nil {
			t.Errorf("Add(7, %v) accepted", n)
		}
	}
}

// TestCoverageDeterministic: two estimators fed the same history report
// the same coverage bit for bit. Decay 0.3 makes every counter inexact,
// so a total summed in map order would differ in its last bits between
// the two.
func TestCoverageDeterministic(t *testing.T) {
	var cov [2]float64
	for run := range cov {
		e := mustNew(t, Config{Decay: 0.3, Floor: 1e-9})
		rng := rand.New(rand.NewSource(7))
		for period := 0; period < 20; period++ {
			for i := 0; i < 2000; i++ {
				e.Record(int64(rng.Intn(5000)))
			}
			e.Tick()
		}
		_, cov[run] = e.Select(100)
	}
	if cov[0] != cov[1] {
		t.Fatalf("coverage %v then %v from the same history", cov[0], cov[1])
	}
}

func BenchmarkRecordSelect(b *testing.B) {
	e, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Record(int64(i % 1024))
		if i%1024 == 0 {
			e.Select(64)
			e.Tick()
		}
	}
}

// BenchmarkClosePeriod times one period close at the station's replan
// shape: 10,000 tracked keys seeded with Zipf(0.8) weights, 1,000
// Records, then Tick and Select(1000). A decay this close to 1 keeps
// every counter above the floor, so each iteration sees all 10,000.
func BenchmarkClosePeriod(b *testing.B) {
	const keys = 10_000
	e, err := New(Config{Decay: 1 - 1.0/(1<<30)})
	if err != nil {
		b.Fatal(err)
	}
	for key := 1; key <= keys; key++ {
		if err := e.Add(int64(key), math.Ceil(100/math.Pow(float64(key), 0.8))); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			e.Record(1 + rng.Int63n(keys))
		}
		e.Tick()
		if hot, _ := e.Select(1000); len(hot) != 1000 {
			b.Fatalf("selected %d keys", len(hot))
		}
	}
}
