package sim

import (
	"errors"

	"repro/internal/fault"
)

// Report is the outcome of an evaluation in an environment where queries
// can fail — channel outages, station crashes, a tight budget. Queries
// that exhaust the retry budget are excluded from the cost averages —
// Summary is the conditional mean over completed queries — and surface in
// Availability instead.
type Report struct {
	// Summary is the weighted-average cost of the queries that completed.
	Summary Summary
	// Availability is the weighted fraction of queries that completed
	// (did not end in fault.ErrRetryBudget).
	Availability float64
	// HitRate is the weighted fraction of completed queries that found
	// their key.
	HitRate float64
}

// EvaluateReport computes the expected client cost of the timeline under
// env over the arrival window [lo, hi): a query arrives uniformly at
// every slot in the window and requests each demanded key with
// probability proportional to its weight. The window is in absolute
// slots because outages and crashes are absolute-time events — the same
// program costs differently before, during, and after a window. All
// averages are exact sums, not samples. Unlike EvaluateAdaptive, a query
// that runs out of budget does not fail the evaluation; it counts
// against Availability.
func EvaluateReport(tl *Timeline, lo, hi int, demand []Demand, pw Power, env FaultConfig) (Report, error) {
	var r Report
	var completed, failed, hits float64
	phases := float64(hi - lo)
	err := eachLookup(tl, lo, hi, demand, pw, env, func(w float64, m Metrics, found bool, err error) error {
		u := w / phases
		if errors.Is(err, fault.ErrRetryBudget) {
			failed += u
			return nil
		}
		if err != nil {
			return err
		}
		completed += u
		r.Summary.ProbeWait += u * float64(m.ProbeWait)
		r.Summary.DataWait += u * float64(m.DataWait)
		r.Summary.AccessTime += u * float64(m.AccessTime)
		r.Summary.TuningTime += u * float64(m.TuningTime)
		r.Summary.Retries += u * float64(m.Retries)
		r.Summary.Restarts += u * float64(m.Restarts)
		r.Summary.Failovers += u * float64(m.Failovers)
		r.Summary.Reconnects += u * float64(m.Reconnects)
		r.Summary.Energy += u * m.Energy
		if found {
			hits += u
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	r.Availability = completed / (completed + failed)
	if completed > 0 {
		r.Summary.ProbeWait /= completed
		r.Summary.DataWait /= completed
		r.Summary.AccessTime /= completed
		r.Summary.TuningTime /= completed
		r.Summary.Retries /= completed
		r.Summary.Restarts /= completed
		r.Summary.Failovers /= completed
		r.Summary.Reconnects /= completed
		r.Summary.Energy /= completed
		r.HitRate = hits / completed
	}
	return r, nil
}
