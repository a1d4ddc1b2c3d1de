package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/fault"
)

func TestRemapValidation(t *testing.T) {
	p := keyedProgram(t, 10, 2, 1)
	cases := []struct {
		phys  []int
		width int
	}{
		{[]int{1}, 2},       // too few physical channels
		{[]int{1, 2, 3}, 3}, // too many
		{[]int{1, 2}, 1},    // width below channel count
		{[]int{0, 2}, 2},    // channel below 1
		{[]int{1, 5}, 4},    // channel above width
		{[]int{2, 1}, 2},    // not increasing
		{[]int{2, 2}, 3},    // duplicate
	}
	for _, c := range cases {
		if _, err := p.Remap(c.phys, c.width); err == nil {
			t.Errorf("Remap(%v, %d) succeeded", c.phys, c.width)
		}
	}
}

// TestRemapIdentity: remapping onto the identity placement reproduces
// the program bucket for bucket.
func TestRemapIdentity(t *testing.T) {
	p := keyedProgram(t, 12, 2, 2)
	q, err := p.Remap([]int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Channels() != 2 || q.CycleLen() != p.CycleLen() || q.RootChannel() != 1 {
		t.Fatalf("identity remap shape: %d channels, cycle %d, root %d",
			q.Channels(), q.CycleLen(), q.RootChannel())
	}
	for ch := 1; ch <= 2; ch++ {
		for s := 1; s <= p.CycleLen(); s++ {
			a, b := p.BucketAt(ch, s), q.BucketAt(ch, s)
			if a.Node != b.Node || a.NextCycle != b.NextCycle || a.RootCopy != b.RootCopy ||
				len(a.Children) != len(b.Children) {
				t.Fatalf("bucket (%d,%d) differs: %+v vs %+v", ch, s, a, b)
			}
			for i := range a.Children {
				if a.Children[i] != b.Children[i] {
					t.Fatalf("bucket (%d,%d) child %d differs", ch, s, i)
				}
			}
		}
	}
}

// TestRemapDiscovery: a program remapped away from channel 1 is still
// fully queryable through the outage protocol — the probe on channel 1
// reads a filler bucket whose frame advertises the real root channel,
// and the client re-tunes there.
func TestRemapDiscovery(t *testing.T) {
	base := keyedProgram(t, 12, 1, 3)
	p, err := base.Remap([]int{2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.RootChannel() != 2 {
		t.Fatalf("root channel %d, want 2", p.RootChannel())
	}
	for ch := 1; ch <= 2; ch++ {
		for s := 1; s <= p.CycleLen(); s++ {
			if b := p.BucketAt(ch, s); b.NextCycle != p.CycleLen()-s+1 {
				t.Fatalf("bucket (%d,%d) NextCycle %d", ch, s, b.NextCycle)
			}
		}
	}
	oc := FaultConfig{DeadAir: DefaultDeadAir}
	for a := 0; a < p.CycleLen(); a++ {
		for key := int64(0); key <= 13; key++ {
			m, found, err := p.timeline().QuerySwitch(a, key, testPower, oc)
			if err != nil {
				t.Fatalf("arrival %d key %d: %v", a, key, err)
			}
			_, wantFound, err := base.QueryKey(a, key, testPower)
			if err != nil {
				t.Fatal(err)
			}
			if found != wantFound {
				t.Fatalf("arrival %d key %d: found %v, want %v", a, key, found, wantFound)
			}
			if m.Failovers != 0 || m.Retries != 0 {
				t.Fatalf("arrival %d key %d: failovers/retries on a perfect medium: %+v", a, key, m)
			}
		}
	}
}

// TestQueryOutageDisabledMatchesQuerySwitch: with failover disabled and
// no outage schedule the outage client is byte-identical to the adaptive
// client under any lossy model — the failover machinery costs nothing
// when off.
func TestQueryOutageDisabledMatchesQuerySwitch(t *testing.T) {
	p := keyedProgram(t, 12, 2, 7)
	tl, err := NewTimeline(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	fc := FaultConfig{Model: fault.Model{Seed: 99, Drop: 0.1, Corrupt: 0.05}}
	oc := FaultConfig{Model: fc.Model}
	for a := 0; a < p.CycleLen(); a++ {
		for key := int64(0); key <= 13; key++ {
			got, gFound, gErr := tl.QuerySwitch(a, key, testPower, oc)
			want, wFound, wErr := tl.QuerySwitch(a, key, testPower, fc)
			if (gErr == nil) != (wErr == nil) {
				t.Fatalf("arrival %d key %d: err %v vs %v", a, key, gErr, wErr)
			}
			if gErr != nil {
				continue
			}
			if got != want || gFound != wFound {
				t.Fatalf("arrival %d key %d: %+v/%v vs %+v/%v", a, key, got, gFound, want, wFound)
			}
		}
	}
}

// TestQueryOutageRidesOutShortWindow: an outage shorter than DeadAir
// cycles is absorbed by ordinary retries; one spanning more trips the
// dead-air detector, costs failovers, and still completes once the
// channel returns.
func TestQueryOutageRidesOutShortWindow(t *testing.T) {
	p := keyedProgram(t, 12, 2, 11)
	L := p.CycleLen()

	short := FaultConfig{Outages: fault.Outages{{Channel: 1, StartSlot: 0, EndSlot: 2 * L}}, DeadAir: DefaultDeadAir}
	m, found, err := p.timeline().QuerySwitch(0, 5, testPower, short)
	if err != nil {
		t.Fatal(err)
	}
	if !found || m.Failovers != 0 || m.Retries == 0 {
		t.Fatalf("short window: %+v found=%v, want retries only", m, found)
	}

	long := FaultConfig{Outages: fault.Outages{{Channel: 1, StartSlot: 0, EndSlot: 3*L + 1}}, DeadAir: DefaultDeadAir}
	m, found, err = p.timeline().QuerySwitch(0, 5, testPower, long)
	if err != nil {
		t.Fatal(err)
	}
	if !found || m.Failovers == 0 {
		t.Fatalf("long window: %+v found=%v, want at least one failover", m, found)
	}

	// A starved budget turns the same window into a terminal failure.
	starved := long
	starved.MaxRetries = 3
	if _, _, err := p.timeline().QuerySwitch(0, 5, testPower, starved); !errors.Is(err, fault.ErrRetryBudget) {
		t.Fatalf("starved budget: err %v, want ErrRetryBudget", err)
	}
}

// TestQueryOutageFailsOverToReplannedEpoch: after the watchdog detects
// the outage the tower swaps in a survivor replan; a client arriving
// mid-outage pays exactly one failover to discover the new root channel
// and completes its descent entirely on the surviving channel.
func TestQueryOutageFailsOverToReplannedEpoch(t *testing.T) {
	p1 := keyedProgram(t, 12, 2, 13)
	L := p1.CycleLen()
	survivor, err := keyedProgram(t, 12, 1, 13).Remap([]int{2}, 2)
	if err != nil {
		t.Fatal(err)
	}

	outs := fault.Outages{{Channel: 1, StartSlot: L, EndSlot: 100 * L}}
	const watchdog = 3
	events := outs.Detections(2, watchdog, 10*L)
	if len(events) != 1 || events[0].Slot != L+watchdog || len(events[0].Live) != 1 || events[0].Live[0] != 2 {
		t.Fatalf("detections = %+v", events)
	}

	tl, err := NewTimeline(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	swap, err := tl.Append(survivor, 2, events[0].Slot+1)
	if err != nil {
		t.Fatal(err)
	}
	oc := FaultConfig{Outages: outs, DeadAir: DefaultDeadAir}

	// Arrive well after the swap: probe channel 1 (dark), fail over once,
	// then run entirely on channel 2.
	m, found, err := tl.QuerySwitch(swap+L, 5, testPower, oc)
	if err != nil {
		t.Fatal(err)
	}
	if !found || m.Failovers != 1 {
		t.Fatalf("post-swap query: %+v found=%v, want exactly one failover", m, found)
	}

	// Arrive before the outage: the whole window [0, L) must still
	// complete — early arrivals descend epoch 1 before slot L, later ones
	// pay retries/failovers and land on epoch 2.
	for a := 0; a < L; a++ {
		if _, _, err := tl.QuerySwitch(a, 5, testPower, oc); err != nil {
			t.Fatalf("arrival %d: %v", a, err)
		}
	}
}

// TestEvaluateOutageNoOutagesMatchesAdaptive: with an empty schedule and
// failover disabled the outage evaluator reproduces EvaluateAdaptive
// exactly, with availability 1.
func TestEvaluateOutageNoOutagesMatchesAdaptive(t *testing.T) {
	p := keyedProgram(t, 12, 2, 17)
	tl, err := NewTimeline(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	var demand []Demand
	tr := p.Tree()
	for _, d := range tr.DataIDs() {
		k, _ := tr.Key(d)
		demand = append(demand, Demand{Key: k, Weight: tr.Weight(d)})
	}
	fc := FaultConfig{Model: fault.Model{Seed: 5, Drop: 0.05}}
	oc := FaultConfig{Model: fc.Model}
	L := p.CycleLen()

	want, wantHits, err := EvaluateAdaptive(tl, 0, L, demand, testPower, fc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateReport(tl, 0, L, demand, testPower, oc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Availability != 1 {
		t.Fatalf("availability %v, want 1", got.Availability)
	}
	if math.Abs(got.HitRate-wantHits) > 1e-9 {
		t.Fatalf("hit rate %v, want %v", got.HitRate, wantHits)
	}
	if math.Abs(got.Summary.AccessTime-want.AccessTime) > 1e-9 ||
		math.Abs(got.Summary.TuningTime-want.TuningTime) > 1e-9 ||
		math.Abs(got.Summary.Retries-want.Retries) > 1e-9 {
		t.Fatalf("summary %+v, want %+v", got.Summary, want)
	}
}

// TestEvaluateOutageAvailability: a root-channel outage long enough to
// exhaust starved budgets shows up as availability < 1, not as an
// evaluator error, and the failed mass is excluded from the cost means.
func TestEvaluateOutageAvailability(t *testing.T) {
	p := keyedProgram(t, 12, 2, 19)
	L := p.CycleLen()
	oc := FaultConfig{
		Outages:    fault.Outages{{Channel: 1, StartSlot: 0, EndSlot: 40 * L}},
		MaxRetries: 6,
		DeadAir:    DefaultDeadAir,
	}
	r, err := EvaluateReport(p.timeline(), 0, L, catalogDemand(p), testPower, oc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Availability >= 1 || r.Availability < 0 {
		t.Fatalf("availability %v, want < 1 under a 40-cycle root outage", r.Availability)
	}

	clear, err := EvaluateReport(p.timeline(), 41*L, 42*L, catalogDemand(p), testPower, oc)
	if err != nil {
		t.Fatal(err)
	}
	if clear.Availability != 1 || clear.Summary.Failovers != 0 {
		t.Fatalf("post-outage window: %+v, want full availability", clear)
	}
}

// catalogDemand is the demand of p's own catalog: every data item's key
// at its weight.
func catalogDemand(p *Program) []Demand {
	var demand []Demand
	for _, d := range p.Tree().DataIDs() {
		k, _ := p.Tree().Key(d)
		demand = append(demand, Demand{Key: k, Weight: p.Tree().Weight(d)})
	}
	return demand
}
