package netcast

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// These tests pin the retry-budget boundary: a query that needs exactly
// MaxRetries redundant wake-ups (Retries + Restarts == budget) must
// SUCCEED, and one that needs a single wake-up more must fail with
// fault.ErrRetryBudget — identically in the analytic simulator, over the
// socket protocol, and on the adaptive restart path. An off-by-one on
// either side would silently break the byte-identical cross-checks only
// for the rare queries that land exactly on the boundary, which is why
// the boundary gets its own pins at budget=1 and budget=exact-need.

// TestRetryBudgetBoundaryStatic cross-checks sim.QueryFaulty against the
// netcast client on a static lossy program.
func TestRetryBudgetBoundaryStatic(t *testing.T) {
	p := compiled(t, 7, 2, 21, false)
	tr := p.Tree()
	ds := tr.DataIDs()
	model := fault.Model{Seed: 13, Drop: 0.25, Corrupt: 0.1}
	generous := sim.FaultConfig{Model: model, MaxRetries: 1 << 20}

	type boundaryCase struct {
		arrival int
		di      int // index into ds
		key     int64
		need    int // wake-ups a successful query spends
	}
	var exact1, exactN *boundaryCase
	for di, d := range ds {
		key, _ := tr.Key(d)
		for arrival := 0; arrival < p.CycleLen(); arrival++ {
			m, err := p.QueryFaulty(arrival, d, pw, generous)
			if err != nil {
				t.Fatal(err)
			}
			need := m.Retries + m.Restarts
			if need == 1 && exact1 == nil {
				exact1 = &boundaryCase{arrival, di, key, need}
			}
			if need >= 2 && exactN == nil {
				exactN = &boundaryCase{arrival, di, key, need}
			}
		}
	}
	if exact1 == nil || exactN == nil {
		t.Fatalf("fault model produced no boundary cases: need==1 %v, need>=2 %v", exact1, exactN)
	}

	check := func(c *boundaryCase) {
		t.Helper()
		d := ds[c.di]
		// At exactly the budget the query succeeds on both paths, with
		// byte-identical metrics.
		fc := sim.FaultConfig{Model: model, MaxRetries: c.need}
		wantM, err := p.QueryFaulty(c.arrival, d, pw, fc)
		if err != nil {
			t.Fatalf("sim at exact budget %d: %v", c.need, err)
		}
		if spent := wantM.Retries + wantM.Restarts; spent != c.need {
			t.Fatalf("sim spent %d wake-ups, want %d", spent, c.need)
		}
		found, m, err := runFaultyLookup(t, compiled(t, 7, 2, 21, false),
			ServerOptions{Faults: model}, c.need, c.arrival, c.key)
		if err != nil || !found {
			t.Fatalf("net at exact budget %d: found=%v err=%v", c.need, found, err)
		}
		if m != wantM {
			t.Fatalf("at exact budget %d: net %+v != sim %+v", c.need, m, wantM)
		}
		// One below the budget both paths report the sentinel. (Budget 0
		// means "use the default", so this leg needs need >= 2.)
		if c.need >= 2 {
			fc.MaxRetries = c.need - 1
			if _, err := p.QueryFaulty(c.arrival, d, pw, fc); !errors.Is(err, fault.ErrRetryBudget) {
				t.Fatalf("sim below budget: want ErrRetryBudget, got %v", err)
			}
			if _, _, err := runFaultyLookup(t, compiled(t, 7, 2, 21, false),
				ServerOptions{Faults: model}, c.need-1, c.arrival, c.key); !errors.Is(err, fault.ErrRetryBudget) {
				t.Fatalf("net below budget: want ErrRetryBudget, got %v", err)
			}
		}
	}
	check(exact1) // budget = 1, exactly one retry needed
	check(exactN) // budget = exact need >= 2, and need-1 fails
}

// TestRetryBudgetBoundaryAdaptiveRestart pins the boundary on the restart
// path: a fault-free descent that straddles an epoch swap costs exactly
// one restart, so it must succeed at budget=1 on both the timeline twin
// and the TCP tower; and on a lossy adaptive broadcast a query whose cost
// mixes retries and restarts must succeed at budget=exact-need and fail
// one below, identically on both sides.
func TestRetryBudgetBoundaryAdaptiveRestart(t *testing.T) {
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

	lookupAt := func(arrival int, key int64, budget int, opts ServerOptions) adaptiveOutcome {
		return runAdaptive(t, p1, p2, stageAt, total, budget, opts, func(c *Client) adaptiveOutcome {
			found, _, m, err := c.Lookup(arrival, key, pw)
			return adaptiveOutcome{found: found, m: m, err: err}
		})
	}

	// Budget = 1: a pure restart (Retries 0, Restarts 1) spends the whole
	// budget and must still succeed.
	pure := false
	for arrival := swap - p1.CycleLen(); arrival < swap && !pure; arrival++ {
		for key := int64(1); key <= 8; key++ {
			m, _, err := tl.QuerySwitch(arrival, key, pw, sim.FaultConfig{MaxRetries: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if m.Retries != 0 || m.Restarts != 1 {
				continue
			}
			wantM, wantFound, err := tl.QuerySwitch(arrival, key, pw, sim.FaultConfig{MaxRetries: 1})
			if err != nil {
				t.Fatalf("arrival %d key %d: sim restart at budget 1: %v", arrival, key, err)
			}
			out := lookupAt(arrival, key, 1, ServerOptions{})
			if out.err != nil {
				t.Fatalf("arrival %d key %d: net restart at budget 1: %v", arrival, key, out.err)
			}
			if out.m != wantM || out.found != wantFound {
				t.Fatalf("arrival %d key %d: net %+v/%v != sim %+v/%v",
					arrival, key, out.m, out.found, wantM, wantFound)
			}
			pure = true
			break
		}
	}
	if !pure {
		t.Fatal("no descent straddled the swap with exactly one restart")
	}

	// Budget = exact need on a lossy adaptive broadcast, where the spend
	// mixes retries with restarts; one wake-up less fails on both sides.
	model := fault.Model{Seed: 11, Drop: 0.18, Corrupt: 0.07}
	opts := ServerOptions{Faults: model}
	generous := sim.FaultConfig{Model: model, MaxRetries: 1 << 20}
	mixed := false
	for arrival := swap - p1.CycleLen(); arrival < swap+p2.CycleLen() && !mixed; arrival++ {
		for key := int64(1); key <= 8; key++ {
			m, _, err := tl.QuerySwitch(arrival, key, pw, generous)
			if err != nil {
				t.Fatal(err)
			}
			need := m.Retries + m.Restarts
			if m.Retries < 1 || m.Restarts < 1 {
				continue
			}
			wantM, wantFound, err := tl.QuerySwitch(arrival, key, pw, sim.FaultConfig{Model: model, MaxRetries: need})
			if err != nil {
				t.Fatalf("arrival %d key %d: sim at exact budget %d: %v", arrival, key, need, err)
			}
			out := lookupAt(arrival, key, need, opts)
			if out.err != nil {
				t.Fatalf("arrival %d key %d: net at exact budget %d: %v", arrival, key, need, out.err)
			}
			if out.m != wantM || out.found != wantFound {
				t.Fatalf("arrival %d key %d at exact budget %d: net %+v/%v != sim %+v/%v",
					arrival, key, need, out.m, out.found, wantM, wantFound)
			}
			if _, _, err := tl.QuerySwitch(arrival, key, pw, sim.FaultConfig{Model: model, MaxRetries: need - 1}); !errors.Is(err, fault.ErrRetryBudget) {
				t.Fatalf("arrival %d key %d: sim below budget: want ErrRetryBudget, got %v", arrival, key, err)
			}
			if out := lookupAt(arrival, key, need-1, opts); !errors.Is(out.err, fault.ErrRetryBudget) {
				t.Fatalf("arrival %d key %d: net below budget: want ErrRetryBudget, got %v", arrival, key, out.err)
			}
			mixed = true
			break
		}
	}
	if !mixed {
		t.Fatal("no lossy query mixed retries and restarts across the swap")
	}
}

// TestRetryBudgetBoundaryFailover pins the boundary for the full shared
// budget: on a lossy adaptive broadcast whose root channel also suffers
// an outage (detected, replanned onto the survivor, hot-swapped, then
// recovered), a query whose spend mixes retries, restarts AND channel
// failovers must succeed at budget = exact need with byte-identical
// metrics on both sides, and fail with fault.ErrRetryBudget at need-1 on
// both sides. This is the only test where all three budget components
// are simultaneously nonzero.
func TestRetryBudgetBoundaryFailover(t *testing.T) {
	p1 := compiled(t, 8, 2, 31, true)
	L := p1.CycleLen()
	const w = 3
	out := fault.Outages{{Channel: 1, StartSlot: 2 * L, EndSlot: 6 * L}}
	horizon := 12 * L
	events := out.Detections(p1.Channels(), w, horizon)
	progs := make([]*sim.Program, len(events))
	for i, ev := range events {
		progs[i] = survivorProgram(t, p1, ev.Live, p1.Channels())
	}
	tl, err := sim.NewTimeline(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if _, err := tl.Append(progs[i], uint32(i+2), ev.Slot); err != nil {
			t.Fatal(err)
		}
	}
	model := fault.Model{Seed: 5, Drop: 0.3, Corrupt: 0.05}
	opts := ServerOptions{Faults: model, Outages: out, Watchdog: w}
	generous := sim.FaultConfig{Model: model, Outages: out, MaxRetries: 1 << 20, DeadAir: w}

	lookupAt := func(arrival int, key int64, budget int) outageOutcome {
		s := outageTower(t, p1, progs, opts)
		defer s.Close()
		c := pipeClient(t, s)
		defer c.Close()
		c.MaxRetries, c.DeadAir, c.Channels = budget, w, p1.Channels()
		done := make(chan outageOutcome, 1)
		go func() {
			found, _, m, err := c.Lookup(arrival, key, pw)
			done <- outageOutcome{found, m, err}
		}()
		return driveUntil(t, s, done)
	}

	full := false
	for arrival := 0; arrival < 8*L && !full; arrival++ {
		for key := int64(1); key <= 8; key++ {
			m, _, err := tl.QuerySwitch(arrival, key, pw, generous)
			if err != nil {
				t.Fatal(err)
			}
			if m.Retries < 1 || m.Restarts < 1 || m.Failovers < 1 {
				continue
			}
			need := m.Retries + m.Restarts + m.Failovers
			exact := generous
			exact.MaxRetries = need
			wantM, wantFound, err := tl.QuerySwitch(arrival, key, pw, exact)
			if err != nil {
				t.Fatalf("arrival %d key %d: sim at exact budget %d: %v", arrival, key, need, err)
			}
			out := lookupAt(arrival, key, need)
			if out.err != nil {
				t.Fatalf("arrival %d key %d: net at exact budget %d: %v", arrival, key, need, out.err)
			}
			if out.m != wantM || out.found != wantFound {
				t.Fatalf("arrival %d key %d at exact budget %d: net %+v/%v != sim %+v/%v",
					arrival, key, need, out.m, out.found, wantM, wantFound)
			}
			below := generous
			below.MaxRetries = need - 1
			if _, _, err := tl.QuerySwitch(arrival, key, pw, below); !errors.Is(err, fault.ErrRetryBudget) {
				t.Fatalf("arrival %d key %d: sim below budget: want ErrRetryBudget, got %v", arrival, key, err)
			}
			if out := lookupAt(arrival, key, need-1); !errors.Is(out.err, fault.ErrRetryBudget) {
				t.Fatalf("arrival %d key %d: net below budget: want ErrRetryBudget, got %v", arrival, key, out.err)
			}
			full = true
			break
		}
	}
	if !full {
		t.Fatal("no query mixed retries, restarts and failovers")
	}
}

// TestRetryBudgetBoundaryReconnect extends the boundary pin to the full
// four-term budget: on a lossy adaptive broadcast with a dark channel
// (client-side failover, no replan) AND a station kill/warm-restart
// window, a query whose spend mixes retries, restarts, failovers and
// reconnect attempts must succeed at budget = exact need with
// byte-identical metrics over the socket and in the analytic twin, and
// fail with fault.ErrRetryBudget at need-1 on both sides. This is the
// only test where all four budget components are simultaneously nonzero.
func TestRetryBudgetBoundaryReconnect(t *testing.T) {
	p1 := compiled(t, 10, 3, 1, true)
	p2 := compiled(t, 8, 3, 2, true)
	L1 := p1.CycleLen()
	stageAt := L1 + 1 // swap lands at 2*L1
	const w = 3
	model := fault.Model{Seed: 3, Drop: 0.25, Corrupt: 0.05}
	// The dark window on the probe channel sits in the cycle before the
	// swap, the kill a cycle after it: a session can fail over during its
	// probe, restart its descent at the swap, and still be in flight when
	// the station dies.
	outs := fault.Outages{{Channel: 1, StartSlot: L1, EndSlot: 2 * L1}}
	down := fault.Downtimes{{StartSlot: 3*L1 + 3, EndSlot: 3*L1 + 8}}
	bo := fault.Backoff{Seed: 23, Base: 4, Cap: 32}

	tl, err := sim.NewTimeline(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Append(p2, 2, stageAt); err != nil {
		t.Fatal(err)
	}
	rcAt := func(budget int) sim.FaultConfig {
		return sim.FaultConfig{
			Model:      model,
			Outages:    outs,
			Downtimes:  down,
			Backoff:    bo,
			MaxRetries: budget,
			DeadAir:    w,
		}
	}
	lookupAt := func(arrival int, key int64, budget int) outageOutcome {
		h := newCrashHarness(t, p1, down, ServerOptions{Faults: model, Outages: outs})
		defer h.close()
		c, _ := h.attach()
		defer c.Close()
		c.MaxRetries, c.Backoff = budget, bo
		c.DeadAir, c.Channels = w, p1.Channels()
		done := make(chan outageOutcome, 1)
		go func() {
			found, _, m, err := c.Lookup(arrival, key, pw)
			done <- outageOutcome{found, m, err}
		}()
		return h.drive(done, stageAt, func() {
			h.mu.Lock()
			reg := h.cur.reg
			h.mu.Unlock()
			if _, err := reg.Stage(p2); err != nil {
				t.Errorf("stage: %v", err)
			}
		})
	}

	full := false
	for arrival := 0; arrival < 3*L1 && !full; arrival++ {
		for key := int64(1); key <= 10; key++ {
			m, _, err := tl.QuerySwitch(arrival, key, pw, rcAt(1<<20))
			if err != nil {
				t.Fatal(err)
			}
			if m.Retries < 1 || m.Restarts < 1 || m.Failovers < 1 || m.Reconnects < 1 {
				continue
			}
			need := m.Retries + m.Restarts + m.Failovers + m.Reconnects
			wantM, wantFound, err := tl.QuerySwitch(arrival, key, pw, rcAt(need))
			if err != nil {
				t.Fatalf("arrival %d key %d: sim at exact budget %d: %v", arrival, key, need, err)
			}
			out := lookupAt(arrival, key, need)
			if out.err != nil {
				t.Fatalf("arrival %d key %d: net at exact budget %d: %v", arrival, key, need, out.err)
			}
			if out.m != wantM || out.found != wantFound {
				t.Fatalf("arrival %d key %d at exact budget %d: net %+v/%v != sim %+v/%v",
					arrival, key, need, out.m, out.found, wantM, wantFound)
			}
			_, _, err = tl.QuerySwitch(arrival, key, pw, rcAt(need-1))
			if !errors.Is(err, fault.ErrRetryBudget) {
				t.Fatalf("arrival %d key %d: sim below budget: want ErrRetryBudget, got %v", arrival, key, err)
			}
			if out := lookupAt(arrival, key, need-1); !errors.Is(out.err, fault.ErrRetryBudget) {
				t.Fatalf("arrival %d key %d: net below budget: want ErrRetryBudget, got %v", arrival, key, out.err)
			}
			full = true
			break
		}
	}
	if !full {
		t.Fatal("no query mixed retries, restarts, failovers and reconnects")
	}
}
