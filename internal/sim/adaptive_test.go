package sim

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/stats"
)

// keyedProgramOpt is keyedProgram with explicit compile options and a
// key offset, so two epochs can carry different catalogs.
func keyedProgramOpt(t *testing.T, n, k int, seed, keyBase int64, opt Options) *Program {
	t.Helper()
	rng := stats.NewRNG(seed)
	items := make([]alphatree.Item, n)
	for i := range items {
		items[i] = alphatree.Item{
			Label:  string(rune('a' + i%26)),
			Key:    keyBase + int64(i+1),
			Weight: float64(1 + rng.Intn(100)),
		}
	}
	tr, err := alphatree.HuTucker(items)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(tr, core.Config{Channels: k})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(sol.Alloc, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTimelineAppend(t *testing.T) {
	p1 := keyedProgram(t, 10, 2, 1)
	p2 := keyedProgram(t, 10, 2, 2)
	L := p1.CycleLen()

	tl, err := NewTimeline(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Staging mid-cycle lands the swap at the next cycle boundary...
	start, err := tl.Append(p2, 2, 2*L+3)
	if err != nil {
		t.Fatal(err)
	}
	if start != 3*L {
		t.Fatalf("swap at %d, want %d", start, 3*L)
	}
	// ...and staging exactly at a boundary swaps there.
	p3 := keyedProgram(t, 10, 2, 3)
	L2 := p2.CycleLen()
	start2, err := tl.Append(p3, 3, 3*L+2*L2)
	if err != nil {
		t.Fatal(err)
	}
	if start2 != 3*L+2*L2 {
		t.Fatalf("swap at %d, want %d", start2, 3*L+2*L2)
	}

	if e := tl.EntryAt(3*L - 1); e.Epoch != 1 {
		t.Fatalf("slot %d in epoch %d, want 1", 3*L-1, e.Epoch)
	}
	if e := tl.EntryAt(3 * L); e.Epoch != 2 {
		t.Fatalf("slot %d in epoch %d, want 2", 3*L, e.Epoch)
	}
	if e, cs := tl.CycleSlot(3*L + 1); e.Epoch != 2 || cs != 2 {
		t.Fatalf("CycleSlot = epoch %d slot %d, want 2/2", e.Epoch, cs)
	}

	// Invalid appends are rejected.
	if _, err := tl.Append(keyedProgram(t, 10, 1, 4), 4, 10*L); err == nil {
		t.Error("want error for channel-count change")
	}
	if _, err := tl.Append(keyedProgram(t, 10, 2, 5), 3, 10*L); err == nil {
		t.Error("want error for non-advancing epoch")
	}
	if _, err := tl.Append(keyedProgram(t, 10, 2, 6), 9, start2); err == nil {
		t.Error("want error for staging before the predecessor aired")
	}
}

// TestQuerySwitchStaticMatchesQueryKey: on a single-epoch timeline the
// adaptive client pays exactly what the static client pays, including
// under faults — the restart machinery is free when no swap happens.
func TestQuerySwitchStaticMatchesQueryKey(t *testing.T) {
	p := keyedProgram(t, 12, 2, 7)
	tl, err := NewTimeline(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	fc := FaultConfig{Model: fault.Model{Seed: 99, Drop: 0.1, Corrupt: 0.05}}
	for a := 0; a < p.CycleLen(); a++ {
		for key := int64(0); key <= 13; key++ {
			got, gFound, gErr := tl.QuerySwitch(a, key, testPower, fc)
			want, wFound, wErr := p.timeline().QuerySwitch(a, key, testPower, fc)
			if (gErr == nil) != (wErr == nil) {
				t.Fatalf("arrival %d key %d: err %v vs %v", a, key, gErr, wErr)
			}
			if gErr != nil {
				continue
			}
			if got != want || gFound != wFound {
				t.Fatalf("arrival %d key %d: %+v/%v vs %+v/%v", a, key, got, gFound, want, wFound)
			}
			if got.Restarts != 0 {
				t.Fatalf("arrival %d key %d: %d restarts on a static timeline", a, key, got.Restarts)
			}
		}
	}
}

// TestQuerySwitchAcrossSwap: epoch 2 carries a disjoint catalog; lookups
// for new keys launched before the swap succeed (restarting if the
// descent straddled the boundary), and the sync path adopts the new
// epoch silently.
func TestQuerySwitchAcrossSwap(t *testing.T) {
	// 3 channels leave channel 1 sparse, so root copies (with pointers
	// wrapping into the next cycle — the buckets that straddle a swap)
	// actually exist.
	p1 := keyedProgramOpt(t, 10, 3, 1, 0, Options{FillWithRootCopies: true})
	p2 := keyedProgramOpt(t, 10, 3, 2, 100, Options{FillWithRootCopies: true})
	tl, err := NewTimeline(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	swap, err := tl.Append(p2, 2, 2*p1.CycleLen()+1)
	if err != nil {
		t.Fatal(err)
	}

	restarts := 0
	for a := 0; a < swap+2*p2.CycleLen(); a++ {
		for key := int64(1); key <= 10; key++ {
			// Old-catalog keys: found iff the descent completed in epoch 1.
			m, found, err := tl.QuerySwitch(a, key, testPower, FaultConfig{})
			if err != nil {
				t.Fatalf("arrival %d key %d: %v", a, key, err)
			}
			restarts += m.Restarts
			if m.AccessTime != m.ProbeWait+m.DataWait {
				t.Fatalf("arrival %d: access %d != %d+%d", a, m.AccessTime, m.ProbeWait, m.DataWait)
			}
			if m.Restarts > 0 && found {
				t.Fatalf("arrival %d key %d: restarted into epoch 2 yet found a retired key", a, key)
			}
			if a >= swap && found {
				t.Fatalf("arrival %d (after swap): stale key %d found", a, key)
			}
		}
		// New-catalog keys are served by every descent landing in epoch 2.
		m, found, err := tl.QuerySwitch(a, 105, testPower, FaultConfig{})
		if err != nil {
			t.Fatalf("arrival %d: %v", a, err)
		}
		if a >= swap && !found {
			t.Fatalf("arrival %d (after swap): key 105 not found", a)
		}
		if found && a+m.AccessTime <= swap {
			t.Fatalf("arrival %d: found a key that was never on the air yet", a)
		}
	}
	if restarts == 0 {
		t.Fatal("no descent ever restarted across the swap")
	}
}

// TestQuerySwitchRestartBudget: with a swap landing every single cycle
// and a lossy channel, fault retries keep bumping reads across epoch
// boundaries (the swap-racing-retry case) and the restart counter shares
// — and exhausts — the retry budget.
func TestQuerySwitchRestartBudget(t *testing.T) {
	p := keyedProgramOpt(t, 10, 3, 1, 0, Options{FillWithRootCopies: true})
	L := p.CycleLen()
	tl, err := NewTimeline(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 60; i++ {
		if _, err := tl.Append(p, uint32(i+1), i*L); err != nil {
			t.Fatal(err)
		}
	}
	fc := FaultConfig{Model: fault.Model{Seed: 5, Drop: 0.25}, MaxRetries: 2}
	sawBudget, sawRestart := false, false
	for a := 0; a < L; a++ {
		for key := int64(1); key <= 10; key++ {
			m, _, err := tl.QuerySwitch(a, key, testPower, fc)
			if err != nil {
				if !errors.Is(err, fault.ErrRetryBudget) {
					t.Fatalf("arrival %d key %d: %v", a, key, err)
				}
				sawBudget = true
				continue
			}
			if m.Restarts > 0 {
				sawRestart = true
			}
			if m.Retries+m.Restarts > fc.budget() {
				t.Fatalf("arrival %d key %d: budget overrun %d+%d", a, key, m.Retries, m.Restarts)
			}
		}
	}
	if !sawRestart {
		t.Error("no query restarted")
	}
	if !sawBudget {
		t.Error("no query exhausted the restart budget")
	}
}

// TestQueryRangeSwitchAcrossSwap: a scan that straddles the swap drops
// its partial result set and re-scans the new epoch, so the final key
// set is exact — no duplicates, no stale keys — for every arrival.
func TestQueryRangeSwitchAcrossSwap(t *testing.T) {
	p1 := keyedProgram(t, 10, 2, 1)
	p2 := keyedProgram(t, 10, 2, 8)
	tl, err := NewTimeline(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	swap, err := tl.Append(p2, 2, p1.CycleLen()+1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 4, 5, 6, 7}
	restarts := 0
	for a := 0; a < swap+p2.CycleLen(); a++ {
		res, err := tl.QueryRangeSwitch(a, 3, 7, testPower, FaultConfig{})
		if err != nil {
			t.Fatalf("arrival %d: %v", a, err)
		}
		restarts += res.Metrics.Restarts
		sort.Slice(res.Keys, func(i, j int) bool { return res.Keys[i] < res.Keys[j] })
		if len(res.Keys) != len(want) {
			t.Fatalf("arrival %d: keys %v, want %v", a, res.Keys, want)
		}
		for i := range want {
			if res.Keys[i] != want[i] {
				t.Fatalf("arrival %d: keys %v, want %v", a, res.Keys, want)
			}
		}
	}
	if restarts == 0 {
		t.Fatal("no scan ever restarted across the swap")
	}
}

// TestEvaluateAdaptiveStaticAnchor: over one cycle of a single-epoch
// timeline with demand equal to the tree weights, the adaptive
// evaluation reproduces the static Evaluate exactly, with hit rate 1.
func TestEvaluateAdaptiveStaticAnchor(t *testing.T) {
	p := keyedProgram(t, 12, 2, 9)
	tl, err := NewTimeline(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Tree()
	var demand []Demand
	for _, d := range tr.DataIDs() {
		k, _ := tr.Key(d)
		demand = append(demand, Demand{Key: k, Weight: tr.Weight(d)})
	}
	got, hit, err := EvaluateAdaptive(tl, 0, p.CycleLen(), demand, testPower, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(p, testPower)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hit-1) > 1e-9 {
		t.Fatalf("hit rate %v, want 1", hit)
	}
	for name, pair := range map[string][2]float64{
		"probe":  {got.ProbeWait, want.ProbeWait},
		"data":   {got.DataWait, want.DataWait},
		"access": {got.AccessTime, want.AccessTime},
		"tuning": {got.TuningTime, want.TuningTime},
		"energy": {got.Energy, want.Energy},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-9 {
			t.Errorf("%s: %v != %v", name, pair[0], pair[1])
		}
	}
	if got.Restarts != 0 || got.Retries != 0 {
		t.Errorf("static anchor has restarts %v retries %v", got.Restarts, got.Retries)
	}

	// Demand for an absent key drags the hit rate below 1.
	_, hit2, err := EvaluateAdaptive(tl, 0, p.CycleLen(),
		append(demand, Demand{Key: 999, Weight: 50}), testPower, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if hit2 >= 1 {
		t.Fatalf("hit rate %v with absent-key demand", hit2)
	}
}
