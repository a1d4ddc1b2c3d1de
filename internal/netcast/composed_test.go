package netcast

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestComposedFaultsMatchTwin mixes every fault class in the same
// sessions: a lossy medium, a channel outage with failover armed, an
// epoch hot swap, and a station kill with warm restart and reconnect. For
// each seed the schedule is drawn at random — the outage may cover the
// swap, the kill lands shortly after it — and every point lookup and
// range scan over the real tower must match sim.Timeline.QuerySwitch /
// QueryRangeSwitch under the identical environment: equal Metrics, equal
// found flags and keys, and ErrRetryBudget on both sides or neither.
func TestComposedFaultsMatchTwin(t *testing.T) {
	const (
		seeds   = 20
		budget  = 64
		deadAir = 3
	)
	type rangeOutcome struct {
		keys []int64
		m    sim.Metrics
		err  error
	}
	var total sim.Metrics
	mixed := 0 // sessions charged for three or more recovery classes
	for seed := int64(1); seed <= seeds; seed++ {
		rng := stats.NewRNG(seed)
		p1 := compiled(t, 8+rng.Intn(4), 3, seed, true)
		p2 := compiled(t, 8+rng.Intn(4), 3, seed+1000, true)
		L := p1.CycleLen()
		stageAt := L + 1 + rng.Intn(L)
		tl, err := sim.NewTimeline(p1, 1)
		if err != nil {
			t.Fatal(err)
		}
		swap, err := tl.Append(p2, 2, stageAt)
		if err != nil {
			t.Fatal(err)
		}
		// The outage is long enough to trip the dead-air detector (three
		// airings of one bucket) and ends around the swap, so sessions
		// arriving before it fail over and then meet the new epoch.
		darkLen := 2*L + 1 + rng.Intn(2*L)
		darkFrom := max(swap-darkLen+rng.Intn(L), 0)
		env := sim.FaultConfig{
			Model:      fault.Model{Seed: seed, Drop: 0.15, Corrupt: 0.05, Stall: 0.1},
			Outages:    fault.Outages{{Channel: 1 + rng.Intn(3), StartSlot: darkFrom, EndSlot: darkFrom + darkLen}},
			Downtimes:  fault.Downtimes{{StartSlot: swap + 1 + rng.Intn(L), EndSlot: 0}},
			Backoff:    fault.Backoff{Seed: seed, Base: 3, Cap: 24},
			MaxRetries: budget,
			DeadAir:    deadAir,
		}
		env.Downtimes[0].EndSlot = env.Downtimes[0].StartSlot + 2 + rng.Intn(6)
		label := fmt.Sprintf("seed %d (outage %v, kill %v, swap %d)", seed, env.Outages[0], env.Downtimes[0], swap)

		// session runs one client against a fresh tower airing p1, staging
		// p2 at stageAt, darkening and losing slots, and dying on schedule.
		session := func(run func(c *Client) outageOutcome) outageOutcome {
			h := newCrashHarness(t, p1, env.Downtimes, ServerOptions{
				Faults: env.Model, Outages: env.Outages,
			})
			defer h.close()
			c, _ := h.attach()
			defer c.Close()
			c.MaxRetries, c.Backoff = budget, env.Backoff
			c.DeadAir, c.Channels = deadAir, p1.Channels()
			done := make(chan outageOutcome, 1)
			go func() { done <- run(c) }()
			return h.drive(done, stageAt, func() {
				h.mu.Lock()
				reg := h.cur.reg
				h.mu.Unlock()
				if _, err := reg.Stage(p2); err != nil {
					t.Errorf("stage: %v", err)
				}
			})
		}
		arrivalAt := func() int { return max(darkFrom-L+rng.Intn(darkLen+L), 0) }
		for i := 0; i < 6; i++ {
			arrival := arrivalAt()
			key := int64(1 + rng.Intn(12))
			wantM, wantFound, wantErr := tl.QuerySwitch(arrival, key, pw, env)
			if wantErr != nil && !errors.Is(wantErr, fault.ErrRetryBudget) {
				t.Fatalf("%s arrival %d key %d: sim: %v", label, arrival, key, wantErr)
			}
			got := session(func(c *Client) outageOutcome {
				found, _, m, err := c.Lookup(arrival, key, pw)
				return outageOutcome{found, m, err}
			})
			checkOutcome(t, fmt.Sprintf("%s arrival %d key %d", label, arrival, key), got, wantM, wantFound, wantErr)
			total.Retries += got.m.Retries
			total.Restarts += got.m.Restarts
			total.Failovers += got.m.Failovers
			total.Reconnects += got.m.Reconnects
			if classes(got.m) >= 3 {
				mixed++
			}
		}
		for i := 0; i < 3; i++ {
			arrival := arrivalAt()
			lo := int64(1 + rng.Intn(10))
			hi := lo + int64(rng.Intn(4))
			want, wantErr := tl.QueryRangeSwitch(arrival, lo, hi, pw, env)
			if wantErr != nil && !errors.Is(wantErr, fault.ErrRetryBudget) {
				t.Fatalf("%s arrival %d range [%d, %d]: sim: %v", label, arrival, lo, hi, wantErr)
			}
			var got rangeOutcome
			session(func(c *Client) outageOutcome {
				got.keys, got.m, got.err = c.LookupRange(arrival, lo, hi, pw)
				return outageOutcome{m: got.m, err: got.err}
			})
			where := fmt.Sprintf("%s arrival %d range [%d, %d]", label, arrival, lo, hi)
			if (got.err != nil) != (wantErr != nil) || (got.err != nil && !errors.Is(got.err, fault.ErrRetryBudget)) {
				t.Fatalf("%s: net err %v, sim err %v", where, got.err, wantErr)
			}
			if got.m != want.Metrics || !slices.Equal(got.keys, want.Keys) {
				t.Fatalf("%s: net %+v %v != sim %+v %v", where, got.m, got.keys, want.Metrics, want.Keys)
			}
			total.Retries += got.m.Retries
			total.Restarts += got.m.Restarts
			total.Reconnects += got.m.Reconnects
			if classes(got.m) >= 3 {
				mixed++
			}
		}
	}
	if total.Retries == 0 || total.Restarts == 0 || total.Failovers == 0 || total.Reconnects == 0 {
		t.Fatalf("sweep spent %+v; every recovery class must occur", total)
	}
	if mixed == 0 {
		t.Fatal("no session recovered in three different ways; the composition is vacuous")
	}
}

// classes counts the recovery classes a session was charged for.
func classes(m sim.Metrics) int {
	n := 0
	for _, c := range []int{m.Retries, m.Restarts, m.Failovers, m.Reconnects} {
		if c > 0 {
			n++
		}
	}
	return n
}
