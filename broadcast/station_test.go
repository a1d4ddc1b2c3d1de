package broadcast_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/broadcast"
	"repro/internal/epoch"
)

func universe(n int) []broadcast.Item {
	items := make([]broadcast.Item, n)
	for i := range items {
		items[i] = broadcast.Item{
			Label:  fmt.Sprintf("u%02d", i+1),
			Key:    int64(i + 1),
			Weight: float64(n - i), // item 1 hottest initially
		}
	}
	return items
}

func TestStationInitialHotSet(t *testing.T) {
	st, err := broadcast.NewStation(universe(20), broadcast.StationConfig{
		HotSize:  5,
		Channels: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The prior weights make keys 1..5 the initial hot set.
	for key := int64(1); key <= 5; key++ {
		if !st.OnAir(key) {
			t.Errorf("key %d should be on air", key)
		}
	}
	if st.OnAir(20) {
		t.Error("coldest key on air")
	}
	sched := st.Schedule()
	if sched == nil || sched.Alloc.Tree().NumData() != 5 {
		t.Fatal("schedule does not carry the hot set")
	}
	// Every hot key is servable through the broadcast.
	pw := broadcast.Power{Active: 1, Doze: 0.05}
	for key := int64(1); key <= 5; key++ {
		if _, found, err := sched.QueryKey(0, key, pw); err != nil || !found {
			t.Fatalf("key %d: found=%v err=%v", key, found, err)
		}
	}
}

func TestStationAdaptsToShiftedDemand(t *testing.T) {
	st, err := broadcast.NewStation(universe(20), broadcast.StationConfig{
		HotSize: 4,
		Decay:   0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cold keys 16..19 suddenly dominate for several periods.
	for period := 0; period < 6; period++ {
		for key := int64(16); key <= 19; key++ {
			for i := 0; i < 50; i++ {
				st.Record(key)
			}
		}
		if _, _, err := st.EndPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	for key := int64(16); key <= 19; key++ {
		if !st.OnAir(key) {
			t.Errorf("key %d should have been promoted", key)
		}
	}
	if st.OnAir(1) {
		t.Error("stale key 1 still on air")
	}
	_, misses, rebuilds := st.Stats()
	if rebuilds < 1 {
		t.Error("no rebuilds despite full churn")
	}
	if misses == 0 {
		t.Error("the first era-2 accesses must have been misses")
	}
	// The new schedule serves the promoted keys.
	pw := broadcast.Power{Active: 1, Doze: 0.05}
	for key := int64(16); key <= 19; key++ {
		if _, found, err := st.Schedule().QueryKey(0, key, pw); err != nil || !found {
			t.Fatalf("promoted key %d not servable: found=%v err=%v", key, found, err)
		}
	}
}

func TestStationStableDemandNoRebuild(t *testing.T) {
	st, err := broadcast.NewStation(universe(8), broadcast.StationConfig{HotSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, before := st.Stats()
	// Demand matches the prior: nothing should change.
	for period := 0; period < 3; period++ {
		for key := int64(1); key <= 4; key++ {
			st.Record(key)
		}
		rebuilt, coverage, err := st.EndPeriod()
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt {
			t.Fatal("stable demand triggered a rebuild")
		}
		if coverage <= 0 {
			t.Fatalf("coverage = %g", coverage)
		}
	}
	_, _, after := st.Stats()
	if after != before {
		t.Fatalf("rebuilds %d -> %d under stable demand", before, after)
	}
}

// TestStationInstallPlannedSurfacesBuildFailure: handing the install
// path a nil schedule — what an async planner produces when its build
// errored — returns the typed epoch.ErrBuildFailed sentinel and leaves
// the previous schedule on the air.
func TestStationInstallPlannedSurfacesBuildFailure(t *testing.T) {
	st, err := broadcast.NewStation(universe(20), broadcast.StationConfig{
		HotSize:  5,
		Channels: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := st.Schedule()
	err = st.InstallPlanned(nil, nil)
	if !errors.Is(err, epoch.ErrBuildFailed) {
		t.Fatalf("err %v, want epoch.ErrBuildFailed", err)
	}
	if st.Schedule() != before {
		t.Fatal("failed install replaced the on-air schedule")
	}
	_, _, rebuilds := st.Stats()
	if rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1 (failed install must not count)", rebuilds)
	}

	sel, _ := st.ClosePeriod()
	sched, err := st.PlanSelection(sel)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InstallPlanned(sel, sched); err != nil {
		t.Fatalf("valid install rejected: %v", err)
	}
	if st.Schedule() != sched {
		t.Fatal("valid install did not take the air")
	}
}

func TestStationConfigErrors(t *testing.T) {
	if _, err := broadcast.NewStation(nil, broadcast.StationConfig{HotSize: 1}); err == nil {
		t.Fatal("want error for empty universe")
	}
	if _, err := broadcast.NewStation(universe(3), broadcast.StationConfig{}); err == nil {
		t.Fatal("want error for HotSize 0")
	}
	dup := universe(2)
	dup[1].Key = dup[0].Key
	if _, err := broadcast.NewStation(dup, broadcast.StationConfig{HotSize: 1}); err == nil {
		t.Fatal("want error for duplicate keys")
	}
	if _, err := broadcast.NewStation(universe(3), broadcast.StationConfig{HotSize: 1, Decay: 2}); err == nil {
		t.Fatal("want error for bad decay")
	}
}

// TestStationWeightsSeedInOneStep: NaN and infinite weights are errors
// naming the key, and a weight far past 2⁵³ seeds at once. The prior was
// once seeded by one Record per unit of weight, a loop that never ended
// on +Inf and stalled at 2⁵³; the time.After guard turns such a hang into
// a failure instead of a stuck suite.
func TestStationWeightsSeedInOneStep(t *testing.T) {
	newStation := func(w float64) error {
		t.Helper()
		u := universe(2)
		u[1].Weight = w
		done := make(chan error, 1)
		go func() {
			_, err := broadcast.NewStation(u, broadcast.StationConfig{HotSize: 2})
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("NewStation with weight %v still seeding after 5 s", w)
			return nil
		}
	}
	for _, w := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		err := newStation(w)
		if err == nil {
			t.Fatalf("weight %v accepted", w)
		}
		if !strings.Contains(err.Error(), "key 2") { //nolint:bcast-errsentinel // naming the key is the contract under test; this error has no sentinel
			t.Fatalf("weight %v: error %q does not name key 2", w, err)
		}
	}
	if err := newStation(1 << 60); err != nil {
		t.Fatalf("weight 2^60: %v", err)
	}
}

func TestStationConcurrent(t *testing.T) {
	st, err := broadcast.NewStation(universe(30), broadcast.StationConfig{HotSize: 6, Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				st.Record(int64(1 + (g*7+i)%30))
				if i%97 == 0 {
					if _, _, err := st.EndPeriod(); err != nil {
						t.Error(err)
						return
					}
					_ = st.Schedule().DataWait()
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, _ := st.Stats()
	if hits+misses != 1600 {
		t.Fatalf("hits %d + misses %d != 1600", hits, misses)
	}
}

// TestStationSurvivesExpansionCap: a station whose rebuild search budget
// is strangled stays on the air with a heuristic schedule.
func TestStationSurvivesExpansionCap(t *testing.T) {
	st, err := broadcast.NewStation(universe(12), broadcast.StationConfig{
		HotSize: 6, Channels: 2, MaxExpanded: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := st.Schedule()
	if sched == nil || sched.Optimal || sched.LimitErr == nil {
		t.Fatalf("capped rebuild schedule: %+v", sched)
	}
	if _, found, err := sched.QueryKey(0, 1, pw); err != nil || !found {
		t.Fatalf("hot key lookup on fallback schedule: found=%v err=%v", found, err)
	}
}

// TestStationInstallsChurnCheckedSelection pins the selection
// pass-through: the broadcast that goes on the air is built from exactly
// the selection that passed the churn check, even if demand keeps moving
// between selection and planning (the old code re-selected inside the
// rebuild and could install a diverged hot set).
func TestStationInstallsChurnCheckedSelection(t *testing.T) {
	st, err := broadcast.NewStation(universe(20), broadcast.StationConfig{
		HotSize:  5,
		Channels: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sel, coverage := st.ClosePeriod()
	if len(sel) != 5 || coverage <= 0 {
		t.Fatalf("selection %v coverage %v", sel, coverage)
	}
	want := map[int64]bool{}
	for _, h := range sel {
		want[h.Key] = true
	}
	// Demand shifts violently after the selection was drawn: a previously
	// cold key becomes the hottest item in the universe.
	for i := 0; i < 10000; i++ {
		st.Record(20)
	}
	sched, err := st.PlanSelection(sel)
	if err != nil {
		t.Fatal(err)
	}
	st.Install(sel, sched)

	for key := int64(1); key <= 20; key++ {
		if st.OnAir(key) != want[key] {
			t.Fatalf("key %d: onAir=%v, selection says %v — installed set diverged",
				key, st.OnAir(key), want[key])
		}
	}
	// The installed schedule's catalog is the selection too.
	tr := st.Schedule().Program().Tree()
	for _, d := range tr.DataIDs() {
		k, _ := tr.Key(d)
		if !want[k] {
			t.Fatalf("schedule carries key %d outside the selection", k)
		}
	}
}

// TestStationRecordUsesKeyIndex: hits/misses agree with OnAir for every
// key (the O(1) key-set index and the hot slice never diverge).
func TestStationRecordHitMissConsistent(t *testing.T) {
	st, err := broadcast.NewStation(universe(12), broadcast.StationConfig{
		HotSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	h0, m0, _ := st.Stats()
	wantHits, wantMisses := h0, m0
	for key := int64(1); key <= 14; key++ {
		onAir := st.OnAir(key)
		if got := st.Record(key); got != onAir {
			t.Fatalf("key %d: Record=%v OnAir=%v", key, got, onAir)
		}
		if onAir {
			wantHits++
		} else {
			wantMisses++
		}
	}
	hits, misses, _ := st.Stats()
	if hits != wantHits || misses != wantMisses {
		t.Fatalf("hits/misses %d/%d, want %d/%d", hits, misses, wantHits, wantMisses)
	}
	if _, _, err := st.EndPeriod(); err != nil {
		t.Fatal(err)
	}
	// The index tracks the install: every hot key still reports a hit.
	for key := int64(1); key <= 12; key++ {
		if st.OnAir(key) != st.Record(key) {
			t.Fatalf("key %d: index diverged after rebuild", key)
		}
	}
}
