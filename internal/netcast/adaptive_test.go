package netcast

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/epoch"
	"repro/internal/fault"
	"repro/internal/sim"
)

// adaptiveOutcome is one client session against an adaptive tower.
type adaptiveOutcome struct {
	found bool
	keys  []int64
	m     sim.Metrics
	err   error
	swaps int
}

// runAdaptive drives one client session against a fresh adaptive server:
// p1 airs as epoch 1, p2 is staged once the clock reaches stageAt, and
// the swap lands at the next cycle boundary — the same schedule the
// timeline twin models with Append(p2, 2, stageAt).
func runAdaptive(t testing.TB, p1, p2 *sim.Program, stageAt, totalSlots, budget int,
	opts ServerOptions, do func(c *Client) adaptiveOutcome) adaptiveOutcome {
	t.Helper()
	reg, err := epoch.NewRegistry(p1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewAdaptiveServer(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := pipeClient(t, s)
	defer c.Close()
	c.MaxRetries = budget

	done := make(chan adaptiveOutcome, 1)
	go func() {
		done <- do(c)
	}()
	drvDone := make(chan struct{})
	go func() {
		defer close(drvDone)
		if err := s.Run(stageAt); err != nil {
			return
		}
		if _, err := reg.Stage(p2); err != nil {
			return
		}
		s.Run(totalSlots - stageAt)
	}()
	out := await(t, done)
	// Join the driver (slots after the client detached tick instantly) so
	// the swap count below reflects the full schedule.
	<-drvDone
	out.swaps = s.Swaps()
	return out
}

// TestAdaptiveLookupMatchesTimeline is the PR's core acceptance pin:
// under identical seeds the TCP tower and the analytic timeline report
// byte-identical Metrics — including Restarts — for every arrival phase
// and key across an epoch swap, and the tower never skips a slot (the
// swap lands exactly once, at a cycle boundary).
func TestAdaptiveLookupMatchesTimeline(t *testing.T) {
	// 3 channels leave root copies on channel 1, whose wrapped pointers
	// are the descents that straddle the swap; epoch 2 drops keys 9-10.
	p1 := compiled(t, 10, 3, 1, true)
	p2 := compiled(t, 8, 3, 2, true)
	tl, err := sim.NewTimeline(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	stageAt := p1.CycleLen() + 1
	swap, err := tl.Append(p2, 2, stageAt)
	if err != nil {
		t.Fatal(err)
	}
	total := swap + 8*(p1.CycleLen()+p2.CycleLen())

	restarts := 0
	for arrival := 0; arrival < swap+2*p2.CycleLen(); arrival++ {
		for key := int64(1); key <= 10; key++ {
			out := runAdaptive(t, p1, p2, stageAt, total, 0, ServerOptions{}, func(c *Client) adaptiveOutcome {
				found, _, m, err := c.Lookup(arrival, key, pw)
				return adaptiveOutcome{found: found, m: m, err: err}
			})
			if out.err != nil {
				t.Fatalf("arrival %d key %d: %v", arrival, key, out.err)
			}
			wantM, wantFound, wantErr := tl.QuerySwitch(arrival, key, pw, sim.FaultConfig{})
			if wantErr != nil {
				t.Fatalf("arrival %d key %d: sim: %v", arrival, key, wantErr)
			}
			if out.m != wantM || out.found != wantFound {
				t.Fatalf("arrival %d key %d: net %+v/%v != sim %+v/%v",
					arrival, key, out.m, out.found, wantM, wantFound)
			}
			if out.swaps != 1 {
				t.Fatalf("arrival %d key %d: %d swaps landed, want 1", arrival, key, out.swaps)
			}
			restarts += out.m.Restarts
		}
	}
	if restarts == 0 {
		t.Fatal("no descent ever straddled the swap")
	}
}

// TestAdaptiveLookupFaultyMatchesTimeline pins the swap-racing-retry
// interaction: under a lossy channel a retry can bump a read across the
// swap boundary, turning into a restart — and the TCP path and the
// analytic path must still agree byte for byte, including when the
// shared budget runs out on both sides.
func TestAdaptiveLookupFaultyMatchesTimeline(t *testing.T) {
	p1 := compiled(t, 10, 3, 1, true)
	p2 := compiled(t, 8, 3, 2, true)
	tl, err := sim.NewTimeline(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	stageAt := p1.CycleLen() + 1
	swap, err := tl.Append(p2, 2, stageAt)
	if err != nil {
		t.Fatal(err)
	}
	total := swap + 40*(p1.CycleLen()+p2.CycleLen())

	model := fault.Model{Seed: 11, Drop: 0.18, Corrupt: 0.07}
	const budget = 4
	fc := sim.FaultConfig{Model: model, MaxRetries: budget}
	opts := ServerOptions{Faults: model}

	var sawRetryAndRestart, sawBudget bool
	for arrival := swap - p1.CycleLen(); arrival < swap+p2.CycleLen(); arrival++ {
		for key := int64(1); key <= 10; key++ {
			out := runAdaptive(t, p1, p2, stageAt, total, budget, opts, func(c *Client) adaptiveOutcome {
				found, _, m, err := c.Lookup(arrival, key, pw)
				return adaptiveOutcome{found: found, m: m, err: err}
			})
			wantM, wantFound, wantErr := tl.QuerySwitch(arrival, key, pw, fc)
			if (out.err == nil) != (wantErr == nil) {
				t.Fatalf("arrival %d key %d: net err %v, sim err %v", arrival, key, out.err, wantErr)
			}
			if out.err != nil {
				if !errors.Is(out.err, fault.ErrRetryBudget) || !errors.Is(wantErr, fault.ErrRetryBudget) {
					t.Fatalf("arrival %d key %d: non-budget errors: net %v sim %v",
						arrival, key, out.err, wantErr)
				}
				sawBudget = true
				continue
			}
			if out.m != wantM || out.found != wantFound {
				t.Fatalf("arrival %d key %d: net %+v/%v != sim %+v/%v",
					arrival, key, out.m, out.found, wantM, wantFound)
			}
			if out.m.Retries > 0 && out.m.Restarts > 0 {
				sawRetryAndRestart = true
			}
		}
	}
	if !sawRetryAndRestart {
		t.Error("no query both retried a fault and restarted across the swap")
	}
	if !sawBudget {
		t.Error("no query exhausted the shared retry budget")
	}
}

// TestAdaptiveRangeMatchesTimeline: a range scan straddling the swap
// discards its partial frontier and re-scans, and the retrieved key
// sequence and metrics match the analytic twin exactly.
func TestAdaptiveRangeMatchesTimeline(t *testing.T) {
	p1 := compiled(t, 10, 2, 1, false)
	p2 := compiled(t, 10, 2, 8, false)
	tl, err := sim.NewTimeline(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	stageAt := p1.CycleLen() + 1
	swap, err := tl.Append(p2, 2, stageAt)
	if err != nil {
		t.Fatal(err)
	}
	total := swap + 8*(p1.CycleLen()+p2.CycleLen())

	restarts := 0
	for arrival := 0; arrival < swap+p2.CycleLen(); arrival++ {
		out := runAdaptive(t, p1, p2, stageAt, total, 0, ServerOptions{}, func(c *Client) adaptiveOutcome {
			keys, m, err := c.LookupRange(arrival, 3, 7, pw)
			return adaptiveOutcome{keys: keys, m: m, err: err}
		})
		if out.err != nil {
			t.Fatalf("arrival %d: %v", arrival, out.err)
		}
		want, err := tl.QueryRangeSwitch(arrival, 3, 7, pw, sim.FaultConfig{})
		if err != nil {
			t.Fatalf("arrival %d: sim: %v", arrival, err)
		}
		if out.m != want.Metrics {
			t.Fatalf("arrival %d: net %+v != sim %+v", arrival, out.m, want.Metrics)
		}
		if !reflect.DeepEqual(out.keys, want.Keys) {
			t.Fatalf("arrival %d: keys %v != %v", arrival, out.keys, want.Keys)
		}
		restarts += out.m.Restarts
	}
	if restarts == 0 {
		t.Fatal("no range scan ever restarted across the swap")
	}
}

// TestAdaptiveServerWithoutStagingIsStatic: an adaptive server nobody
// re-plans behaves exactly like a static one (epoch stamps aside).
func TestAdaptiveServerWithoutStagingIsStatic(t *testing.T) {
	p := compiled(t, 6, 2, 1, false)
	reg, err := epoch.NewRegistry(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewAdaptiveServer(reg, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := pipeClient(t, s)
	defer c.Close()
	done := make(chan adaptiveOutcome, 1)
	go func() {
		found, _, m, err := c.Lookup(3, 4, pw)
		done <- adaptiveOutcome{found: found, m: m, err: err}
	}()
	go s.Run(5 * p.CycleLen())
	out := await(t, done)
	if out.err != nil {
		t.Fatal(out.err)
	}
	want, wantFound, err := p.QueryKey(3, 4, pw)
	if err != nil {
		t.Fatal(err)
	}
	if out.m != want || out.found != wantFound {
		t.Fatalf("net %+v/%v != sim %+v/%v", out.m, out.found, want, wantFound)
	}
	if s.Swaps() != 0 {
		t.Fatalf("%d swaps with nothing staged", s.Swaps())
	}
}
