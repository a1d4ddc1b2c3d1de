package broadcast_test

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/broadcast"
	"repro/internal/stats"
	"repro/internal/tree"
)

var pw = broadcast.Power{Active: 1, Doze: 0.05}

func catalog(weights ...float64) []broadcast.Item {
	items := make([]broadcast.Item, len(weights))
	for i, w := range weights {
		items[i] = broadcast.Item{Label: string(rune('a' + i)), Key: int64(10 * (i + 1)), Weight: w}
	}
	return items
}

func TestEndToEndKeyedLookup(t *testing.T) {
	items := catalog(50, 10, 30, 5, 25, 40, 8, 2)
	tr, err := broadcast.NewCatalogTree(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := broadcast.Optimize(tr, broadcast.Options{Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Optimal {
		t.Fatal("8-item tree should be solved exactly")
	}
	for _, it := range items {
		m, found, err := sched.QueryKey(0, it.Key, pw)
		if err != nil {
			t.Fatalf("QueryKey(%d): %v", it.Key, err)
		}
		if !found {
			t.Fatalf("key %d not found", it.Key)
		}
		if m.DataWait < 1 || m.DataWait > sched.CycleLen() {
			t.Fatalf("key %d: DataWait %d out of range", it.Key, m.DataWait)
		}
	}
	if _, found, _ := sched.QueryKey(0, 15, pw); found {
		t.Fatal("absent key reported found")
	}
	avg, err := sched.Measure(pw)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg.DataWait-sched.DataWait()) > 1e-9 {
		t.Fatalf("measured %v != analytic %v", avg.DataWait, sched.DataWait())
	}
}

func TestOptimizeDefaultsToOneChannel(t *testing.T) {
	sched, err := broadcast.Optimize(tree.Fig1(), broadcast.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sched.DataWait()-391.0/70.0) > 1e-9 {
		t.Fatalf("DataWait = %v, want %v", sched.DataWait(), 391.0/70.0)
	}
	if sched.Used != broadcast.DataTree {
		t.Fatalf("Used = %v, want data-tree", sched.Used)
	}
}

func TestOptimizeReplicateRoot(t *testing.T) {
	items := catalog(9, 7, 5, 3, 1)
	tr, err := broadcast.NewCatalogTree(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := broadcast.Optimize(tr, broadcast.Options{Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := broadcast.Optimize(tr, broadcast.Options{Channels: 2, ReplicateRoot: true})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := plain.Measure(pw)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := repl.Measure(pw)
	if err != nil {
		t.Fatal(err)
	}
	if mr.ProbeWait > mp.ProbeWait+1e-9 {
		t.Fatalf("replication worsened probe wait: %v > %v", mr.ProbeWait, mp.ProbeWait)
	}
}

func TestNewCatalogTreeFanouts(t *testing.T) {
	items := catalog(5, 4, 3, 2, 1, 6, 7, 8, 9)
	for fanout := 2; fanout <= 4; fanout++ {
		tr, err := broadcast.NewCatalogTree(items, fanout)
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		if tr.NumData() != len(items) {
			t.Fatalf("fanout %d: %d leaves", fanout, tr.NumData())
		}
		for _, id := range tr.Preorder() {
			if len(tr.Children(id)) > fanout {
				t.Fatalf("fanout %d violated", fanout)
			}
		}
	}
	if _, err := broadcast.NewCatalogTree(items, 1); err == nil {
		t.Fatal("want error for fanout 1")
	}
}

func TestParseTreeRoundTrip(t *testing.T) {
	tr := tree.Fig1()
	data, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := broadcast.ParseTree(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != tr.NumNodes() {
		t.Fatal("round trip lost nodes")
	}
}

func TestPlannerReplansOnDrift(t *testing.T) {
	items := catalog(100, 100, 100, 100)
	p, err := broadcast.NewPlanner(items, broadcast.PlannerConfig{Channels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Replans() != 1 {
		t.Fatalf("initial replans = %d", p.Replans())
	}
	if d := p.Drift(); d != 0 {
		t.Fatalf("initial drift = %g", d)
	}
	// Hammer a single key until drift passes the threshold.
	for i := 0; i < 1000; i++ {
		p.RecordAccess(items[3].Key)
	}
	if d := p.Drift(); d <= 0.2 {
		t.Fatalf("drift = %g, want > 0.2", d)
	}
	replanned, err := p.MaybeReplan()
	if err != nil {
		t.Fatal(err)
	}
	if !replanned || p.Replans() != 2 {
		t.Fatalf("replanned=%v replans=%d", replanned, p.Replans())
	}
	if d := p.Drift(); d != 0 {
		t.Fatalf("post-replan drift = %g", d)
	}
	// The hot item should now be early in the broadcast.
	sched := p.Schedule()
	hot := sched.Alloc.Tree().FindLabel("d")
	var maxSlot int
	for _, other := range []string{"a", "b", "c"} {
		id := sched.Alloc.Tree().FindLabel(other)
		if s := sched.Alloc.Slot(id); s > maxSlot {
			maxSlot = s
		}
	}
	if sched.Alloc.Slot(hot) >= maxSlot {
		t.Fatalf("hot item at slot %d, others end at %d", sched.Alloc.Slot(hot), maxSlot)
	}
}

func TestPlannerNoReplanBelowThreshold(t *testing.T) {
	items := catalog(10, 10)
	p, err := broadcast.NewPlanner(items, broadcast.PlannerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.RecordAccess(items[0].Key)
	p.RecordAccess(items[1].Key)
	replanned, err := p.MaybeReplan()
	if err != nil {
		t.Fatal(err)
	}
	if replanned {
		t.Fatal("balanced accesses should not trigger a replan")
	}
	// Unknown keys are ignored gracefully.
	p.RecordAccess(999)
}

func TestPlannerErrors(t *testing.T) {
	if _, err := broadcast.NewPlanner(nil, broadcast.PlannerConfig{}); err == nil {
		t.Fatal("want error for empty catalog")
	}
	dup := catalog(1, 2)
	dup[1].Key = dup[0].Key
	if _, err := broadcast.NewPlanner(dup, broadcast.PlannerConfig{}); err == nil {
		t.Fatal("want error for duplicate keys")
	}
}

// Property: the full pipeline — catalog → tree → optimize → simulate —
// retrieves every item for random catalogs, channel counts and fanouts.
func TestQuickPipeline(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(10)
		items := make([]broadcast.Item, n)
		for i := range items {
			items[i] = broadcast.Item{
				Label:  string(rune('a' + i)),
				Key:    int64(i*3 + 1),
				Weight: float64(1 + rng.Intn(100)),
			}
		}
		fanout := 2 + rng.Intn(3)
		tr, err := broadcast.NewCatalogTree(items, fanout)
		if err != nil {
			return false
		}
		sched, err := broadcast.Optimize(tr, broadcast.Options{
			Channels:      1 + rng.Intn(3),
			ReplicateRoot: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Logf("seed=%d: optimize: %v", seed, err)
			return false
		}
		for _, it := range items {
			if _, found, err := sched.QueryKey(rng.Intn(64), it.Key, pw); err != nil || !found {
				t.Logf("seed=%d key=%d: found=%v err=%v", seed, it.Key, found, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOptimizePipeline(b *testing.B) {
	items := catalog(50, 10, 30, 5, 25, 40, 8, 2)
	tr, err := broadcast.NewCatalogTree(items, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := broadcast.Optimize(tr, broadcast.Options{Channels: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlannerConcurrentAccess hammers the planner from several goroutines
// while replans happen; run with -race this verifies thread safety.
func TestPlannerConcurrentAccess(t *testing.T) {
	items := catalog(50, 40, 30, 20, 10)
	p, err := broadcast.NewPlanner(items, broadcast.PlannerConfig{Drift: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.RecordAccess(items[(g+i)%len(items)].Key)
				if i%100 == 0 {
					if _, err := p.MaybeReplan(); err != nil {
						t.Error(err)
						return
					}
					_ = p.Schedule().DataWait()
					_ = p.Drift()
				}
			}
		}(g)
	}
	wg.Wait()
	if p.Replans() < 1 {
		t.Fatal("planner lost its schedule")
	}
}

func TestReplayThroughFacade(t *testing.T) {
	items := catalog(40, 30, 20, 10, 5, 5, 5, 5)
	tr, err := broadcast.NewCatalogTree(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := broadcast.Optimize(tr, broadcast.Options{Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sched.Replay(broadcast.ReplayConfig{
		Queries:       2000,
		Seed:          1,
		Power:         pw,
		RangeFraction: 0.25,
		RangeSpan:     20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 2000 || rep.RangeQueries == 0 {
		t.Fatalf("report: %+v", rep)
	}
	avg, err := sched.Measure(pw)
	if err != nil {
		t.Fatal(err)
	}
	// Range scans can only lengthen the mean access over the pure point
	// expectation.
	if rep.Access.Mean < avg.AccessTime-1 {
		t.Fatalf("replay mean %g improbably below expectation %g", rep.Access.Mean, avg.AccessTime)
	}
}

func TestNewCatalogTreeBounded(t *testing.T) {
	items := catalog(8, 7, 6, 5, 4, 3, 2, 1)
	tr, err := broadcast.NewCatalogTreeBounded(items, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range tr.DataIDs() {
		if tr.Level(d)-1 > 3 {
			t.Fatalf("leaf beyond the depth budget: level %d", tr.Level(d))
		}
	}
	// The bounded tree still optimizes and serves lookups.
	sched, err := broadcast.Optimize(tr, broadcast.Options{Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, found, err := sched.QueryKey(0, items[4].Key, pw)
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	// Tuning = probes + data bucket <= budget + 1 (+1 sync read off-phase;
	// arrival 0 is the cycle start so no sync read here).
	if m.TuningTime > 4 {
		t.Fatalf("tuning %d exceeds depth budget", m.TuningTime)
	}
	if _, err := broadcast.NewCatalogTreeBounded(items, 2, 2); err == nil {
		t.Fatal("want error: 8 items cannot fit depth 2 at fanout 2")
	}
}

func TestMeasurePerItem(t *testing.T) {
	items := catalog(40, 30, 20, 10)
	tr, err := broadcast.NewCatalogTree(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := broadcast.Optimize(tr, broadcast.Options{Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	per, err := sched.MeasurePerItem(pw)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != len(items) {
		t.Fatalf("items = %d", len(per))
	}
	agg, err := sched.Measure(pw)
	if err != nil {
		t.Fatal(err)
	}
	var wSum, waitSum float64
	for _, im := range per {
		wSum += im.Weight
		waitSum += im.Weight * im.DataWait
	}
	if math.Abs(waitSum/wSum-agg.DataWait) > 1e-9 {
		t.Fatalf("per-item aggregate %g != Measure %g", waitSum/wSum, agg.DataWait)
	}
}

// TestMeasureSurvivorSchedule: a schedule planned onto survivor channels
// {2, 3} of a 3-channel tower airs its root on channel 2, and Measure and
// MeasurePerItem probe there — matching the same plan at width 2.
func TestMeasureSurvivorSchedule(t *testing.T) {
	items := catalog(50, 10, 30, 5, 25, 40, 8, 2)
	tr, err := broadcast.NewCatalogTree(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, repl := range []bool{false, true} {
		narrow, err := broadcast.Optimize(tr, broadcast.Options{Channels: 2, ReplicateRoot: repl})
		if err != nil {
			t.Fatal(err)
		}
		survivor, err := broadcast.Optimize(tr, broadcast.Options{
			Channels: 3, LiveChannels: []int{2, 3}, ReplicateRoot: repl,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := narrow.Measure(pw)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := survivor.Measure(pw); err != nil || got != want {
			t.Fatalf("replicate %v: survivor Measure = %+v, %v; width-2 plan %+v", repl, got, err, want)
		}
		wantItems, err := narrow.MeasurePerItem(pw)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := survivor.MeasurePerItem(pw); err != nil || !slices.Equal(got, wantItems) {
			t.Fatalf("replicate %v: survivor MeasurePerItem = %+v, %v; width-2 plan %+v", repl, got, err, wantItems)
		}
	}
}

// TestOptimizeFallbackOnLimit: a strangled exact solve degrades to the
// sorting heuristic instead of failing, and the schedule says so.
func TestOptimizeFallbackOnLimit(t *testing.T) {
	items := catalog(50, 10, 30, 5, 25, 40, 8, 2)
	tr, err := broadcast.NewCatalogTree(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := broadcast.Optimize(tr, broadcast.Options{
		Channels: 2, Strategy: broadcast.Exact, MaxExpanded: 1, FallbackOnLimit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Optimal || sched.Used != broadcast.Sorting || sched.LimitErr == nil {
		t.Fatalf("fallback schedule: optimal=%v used=%v limitErr=%v",
			sched.Optimal, sched.Used, sched.LimitErr)
	}
	// The degraded schedule still serves lookups.
	m, found, err := sched.QueryKey(0, items[3].Key, pw)
	if err != nil || !found {
		t.Fatalf("lookup on fallback schedule: found=%v err=%v", found, err)
	}
	if m.AccessTime < 1 {
		t.Fatalf("bogus metrics %+v", m)
	}
	// Without the flag the same options are a hard error.
	if _, err := broadcast.Optimize(tr, broadcast.Options{
		Channels: 2, Strategy: broadcast.Exact, MaxExpanded: 1,
	}); err == nil {
		t.Fatal("want expansion-limit error without FallbackOnLimit")
	}
}

// TestPlannerSurvivesExpansionCap: a live planner with a tiny search
// budget keeps producing schedules (heuristic ones) rather than dying.
func TestPlannerSurvivesExpansionCap(t *testing.T) {
	p, err := broadcast.NewPlanner(catalog(50, 10, 30, 5, 25, 40, 8, 2), broadcast.PlannerConfig{
		Channels: 2, Strategy: broadcast.Exact, MaxExpanded: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := p.Schedule()
	if sched == nil || sched.Optimal || sched.LimitErr == nil {
		t.Fatalf("planner schedule: %+v", sched)
	}
	// Drive drift and replan: still alive.
	for i := 0; i < 200; i++ {
		p.RecordAccess(80)
	}
	replanned, err := p.MaybeReplan()
	if err != nil {
		t.Fatal(err)
	}
	if !replanned {
		t.Fatal("expected a replan after concentrated drift")
	}
	if p.Schedule() == nil || p.Schedule().LimitErr == nil {
		t.Fatal("replanned schedule lost the limit marker")
	}
}
