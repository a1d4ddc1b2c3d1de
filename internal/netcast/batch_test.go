package netcast

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/retrieval"
	"repro/internal/sim"
)

// runBatch drives one batch session against a fresh server for the
// given program and fault model, returning the client-side outcome.
func runBatch(t testing.TB, p *sim.Program, opts ServerOptions, budget int,
	plan *sim.BatchPlan, reg *obs.Registry) (sim.Metrics, error) {
	t.Helper()
	s, err := NewServerOpts(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := pipeClient(t, s)
	defer c.Close()
	c.MaxRetries = budget
	c.Instrument(reg)

	type outcome struct {
		m   sim.Metrics
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		m, err := c.ReadBatch(plan, pw)
		done <- outcome{m, err}
	}()
	go func() {
		s.AwaitConns(1)
		s.Run(plan.Arrival + plan.Makespan() + (8+budget)*p.CycleLen())
	}()
	out := await(t, done)
	return out.m, out.err
}

// TestReadBatchMatchesSimulator is the tentpole cross-check: a batch
// plan executed over a lossy socket reports metrics byte-identical to
// the analytic sim.Program.QueryBatch under the same seed, for every
// arrival phase — including runs where retries interleave with the plan
// and push later reads into extra cycles — and the per-arrival fold
// equals sim.EvaluateBatch bit for bit.
func TestReadBatchMatchesSimulator(t *testing.T) {
	p := compiled(t, 9, 2, 21, false)
	planner := retrieval.New(retrieval.Config{})
	targets := p.Tree().DataIDs()[1:6]
	const budget = 64
	models := []fault.Model{
		{},
		{Seed: 11, Drop: 0.25},
		{Seed: 13, Drop: 0.15, Corrupt: 0.1, Stall: 0.2},
	}
	for _, model := range models {
		fc := sim.FaultConfig{Model: model, MaxRetries: budget}
		var live []sim.Metrics
		for arrival := 0; arrival < p.CycleLen(); arrival++ {
			plan, err := planner.PlanBatch(p, arrival, targets)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.QueryBatch(plan, pw, fc)
			if err != nil {
				t.Fatal(err)
			}
			m, err := runBatch(t, compiled(t, 9, 2, 21, false),
				ServerOptions{Faults: model}, budget, plan, nil)
			if err != nil {
				t.Fatalf("model %+v arrival %d: %v", model, arrival, err)
			}
			if m != want {
				t.Fatalf("model %+v arrival %d: net %+v != sim %+v", model, arrival, m, want)
			}
			live = append(live, m)
		}
		// The live metrics folded through the same function must equal
		// the analytic evaluation bit for bit.
		want, err := sim.EvaluateBatch(p, targets, pw, fc, planner)
		if err != nil {
			t.Fatal(err)
		}
		if got := sim.FoldBatch(live); got != want {
			t.Fatalf("model %+v: folded live %+v != EvaluateBatch %+v", model, got, want)
		}
	}
}

// TestReadBatchConflictRun pins the conflict path end to end: a seeded
// trial whose plan spills at least one target to a later cycle reports
// the same Conflicts/ExtraCycles on the wire as in the plan and the
// analytic twin.
func TestReadBatchConflictRun(t *testing.T) {
	planner := retrieval.New(retrieval.Config{})
	for seed := int64(21); seed <= 40; seed++ {
		p := compiled(t, 9, 2, seed, false)
		targets := p.Tree().DataIDs()[:6]
		plan, err := planner.PlanBatch(p, 2, targets)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Conflicts == 0 {
			continue
		}
		want, err := p.QueryBatch(plan, pw, sim.FaultConfig{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := runBatch(t, compiled(t, 9, 2, seed, false), ServerOptions{}, 0, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m != want {
			t.Fatalf("seed %d: net %+v != sim %+v", seed, m, want)
		}
		if m.Conflicts != plan.Conflicts || m.ExtraCycles != plan.ExtraCycles {
			t.Fatalf("seed %d: wire conflicts (%d,%d) != plan (%d,%d)",
				seed, m.Conflicts, m.ExtraCycles, plan.Conflicts, plan.ExtraCycles)
		}
		return // one conflicted trial is enough
	}
	t.Fatal("no seed produced a conflicted plan; widen the search")
}

// TestReadBatchBudgetExhausted: a fully dropped channel exhausts the
// shared budget mid-batch on both paths, with identical partial metrics.
func TestReadBatchBudgetExhausted(t *testing.T) {
	p := compiled(t, 9, 2, 22, false)
	planner := retrieval.New(retrieval.Config{})
	targets := p.Tree().DataIDs()[:3]
	plan, err := planner.PlanBatch(p, 0, targets)
	if err != nil {
		t.Fatal(err)
	}
	model := fault.Model{Seed: 5, Drop: 1}
	const budget = 4
	want, werr := p.QueryBatch(plan, pw, sim.FaultConfig{Model: model, MaxRetries: budget})
	if !errors.Is(werr, fault.ErrRetryBudget) {
		t.Fatalf("sim err = %v, want ErrRetryBudget", werr)
	}
	m, err := runBatch(t, compiled(t, 9, 2, 22, false), ServerOptions{Faults: model}, budget, plan, nil)
	if !errors.Is(err, fault.ErrRetryBudget) {
		t.Fatalf("net err = %v, want ErrRetryBudget", err)
	}
	if m != want {
		t.Fatalf("partial metrics diverge: net %+v != sim %+v", m, want)
	}
}

// TestReadBatchRejectsMultiAntenna: one connection is one radio.
func TestReadBatchRejectsMultiAntenna(t *testing.T) {
	p := compiled(t, 9, 2, 23, false)
	plan, err := retrieval.New(retrieval.Config{Antennas: 2}).PlanBatch(p, 0, p.Tree().DataIDs()[:4])
	if err != nil {
		t.Fatal(err)
	}
	_, err = runBatch(t, compiled(t, 9, 2, 23, false), ServerOptions{}, 0, plan, nil)
	if !errors.Is(err, sim.ErrBadPlan) {
		t.Fatalf("err = %v, want ErrBadPlan", err)
	}
	s, err := NewServerOpts(p, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := pipeClient(t, s)
	defer c.Close()
	if _, err := c.ReadBatch(nil, pw); !errors.Is(err, sim.ErrBadPlan) {
		t.Fatalf("nil plan err = %v, want ErrBadPlan", err)
	}
}

// TestReadBatchStalePlan: a plan spanning an epoch hot swap fails with
// ErrStalePlan and one restart charged, instead of silently returning
// buckets from a program the plan was never computed against.
func TestReadBatchStalePlan(t *testing.T) {
	p1 := compiled(t, 10, 3, 1, true)
	p2 := compiled(t, 8, 3, 2, true)
	L := p1.CycleLen()
	// Hand-build a two-read plan straddling the first cycle boundary:
	// the second read lands after the swap and must observe the new
	// epoch stamp.
	d := p1.Tree().DataIDs()
	pos0, pos1 := p1.Position(d[0]), p1.Position(d[1])
	plan := &sim.BatchPlan{
		Arrival:    0,
		Antennas:   1,
		SwitchCost: 1,
		Steps: []sim.BatchStep{
			{Channel: pos0.Channel, Slot: pos0.Slot - 1, Node: d[0], Label: p1.Tree().Label(d[0])},
			{Channel: pos1.Channel, Slot: pos1.Slot - 1 + L, Node: d[1], Label: p1.Tree().Label(d[1])},
		},
	}
	out := runAdaptive(t, p1, p2, 1, 4*(L+p2.CycleLen()), 0, ServerOptions{}, func(c *Client) adaptiveOutcome {
		m, err := c.ReadBatch(plan, pw)
		return adaptiveOutcome{m: m, err: err}
	})
	if !errors.Is(out.err, sim.ErrStalePlan) {
		t.Fatalf("err = %v, want ErrStalePlan", out.err)
	}
	if out.m.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", out.m.Restarts)
	}
	if out.swaps != 1 {
		t.Fatalf("swaps = %d, want 1", out.swaps)
	}
}

// TestReadBatchObs: batch sessions are counted and traced on the client
// registry.
func TestReadBatchObs(t *testing.T) {
	reg := obs.New()
	p := compiled(t, 9, 2, 24, false)
	plan, err := retrieval.New(retrieval.Config{}).PlanBatch(p, 0, p.Tree().DataIDs()[:4])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runBatch(t, compiled(t, 9, 2, 24, false), ServerOptions{}, 0, plan, reg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("client_batches_total").Value(); got != 1 {
		t.Errorf("client_batches_total = %d, want 1", got)
	}
	if got := reg.Counter("client_reads_total").Value(); got != 4 {
		t.Errorf("client_reads_total = %d, want 4", got)
	}
	found := false
	for _, e := range reg.Events(0) {
		if e.Kind == "batch" {
			found = true
		}
	}
	if !found {
		t.Error("no batch trace event emitted")
	}
}
