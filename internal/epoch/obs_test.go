package epoch

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// awaitStats polls until cond holds or the deadline passes.
func awaitStats(t *testing.T, pl *Planner, cond func(PlannerStats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := pl.Stats(); cond(st) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	st, err := pl.Stats()
	t.Fatalf("planner never reached expected stats; last %+v, err %v", st, err)
}

// TestPlannerPublishesObs pins the planner's instrumentation: counters,
// the rebuild-latency histogram fed by the injected clock, and the
// "rebuild" trace event with its epoch and latency attributes.
func TestPlannerPublishesObs(t *testing.T) {
	reg, err := NewRegistry(prog(t, 8, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	r := obs.New()
	var now int64
	next := prog(t, 8, 2, 2)
	pl := NewPlanner(context.Background(), reg, func(ctx context.Context) (*sim.Program, error) {
		return next, nil
	}, PlannerOptions{Obs: r, NowNanos: func() int64 { now += 1000; return now }})
	defer pl.Close()

	pl.Request()
	awaitStats(t, pl, func(st PlannerStats) bool { return st.Staged == 1 })

	s := r.Snapshot()
	if s.Counters["epoch_requests_total"] != 1 || s.Counters["epoch_builds_total"] != 1 ||
		s.Counters["epoch_staged_total"] != 1 || s.Counters["epoch_build_failures_total"] != 0 {
		t.Fatalf("counters %+v", s.Counters)
	}
	// The injected clock ticks 1000ns per read: one rebuild spans exactly
	// two reads, so the histogram holds a single 1000ns observation.
	h := s.Histograms["epoch_rebuild_ns"]
	if h.Count != 1 || h.Sum != 1000 || h.Min != 1000 || h.Max != 1000 {
		t.Fatalf("rebuild latency histogram %+v", h)
	}
	events := r.Events(0)
	if len(events) != 1 || events[0].Kind != "rebuild" {
		t.Fatalf("trace %+v", events)
	}
	attrs := map[string]int64{}
	for _, a := range events[0].Attrs {
		attrs[a.Key] = a.Val
	}
	if attrs["ok"] != 1 || attrs["epoch"] != 2 || attrs["ns"] != 1000 {
		t.Fatalf("rebuild event attrs %+v", attrs)
	}
}

// TestPlannerPublishesFailures: a failing build increments the failure
// counter and emits a rebuild event with ok=0.
func TestPlannerPublishesFailures(t *testing.T) {
	reg, err := NewRegistry(prog(t, 8, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	r := obs.New()
	boom := errors.New("no demand")
	pl := NewPlanner(context.Background(), reg, func(ctx context.Context) (*sim.Program, error) {
		return nil, boom
	}, PlannerOptions{Obs: r})
	defer pl.Close()

	pl.Request()
	awaitStats(t, pl, func(st PlannerStats) bool { return st.Failed == 1 })

	s := r.Snapshot()
	if s.Counters["epoch_build_failures_total"] != 1 || s.Counters["epoch_staged_total"] != 0 {
		t.Fatalf("counters %+v", s.Counters)
	}
	events := r.Events(0)
	if len(events) != 1 || events[0].Kind != "rebuild" || events[0].Attrs[0] != obs.A("ok", 0) {
		t.Fatalf("trace %+v", events)
	}
}
