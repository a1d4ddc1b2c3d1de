package sim

import (
	"errors"
	"fmt"

	"repro/internal/tree"
)

// This file is the analytic twin of batch retrieval: executing a
// precomputed multi-key tune schedule (a BatchPlan, produced by
// internal/retrieval) against the compiled program, under the same fault
// model and shared retry budget as single-key queries. The live
// counterpart is netcast.Client.ReadBatch, kept in lockstep so the two
// report byte-identical metrics under the same seed.

// Batch plan errors. QueryBatch and netcast.Client.ReadBatch wrap these
// with %w so callers can classify failures with errors.Is.
var (
	// ErrBadPlan reports a batch plan that cannot be executed against the
	// program: empty, out-of-range channels, non-monotone per-antenna
	// slots, or a step whose slot does not air the promised node.
	ErrBadPlan = errors.New("sim: invalid batch plan")

	// ErrStalePlan reports a batch plan that crossed an epoch hot swap:
	// the live client heard a bucket stamped with a different epoch than
	// the plan's first read, so the remaining precomputed slots no longer
	// describe what is on the air.
	ErrStalePlan = errors.New("sim: batch plan crossed an epoch swap")
)

// BatchStep is one scheduled read of a batch plan: antenna Antenna tunes
// to Channel and reads the absolute slot Slot, which carries data node
// Node. Steps are ordered by Slot (ties by Antenna).
type BatchStep struct {
	// Antenna identifies which receiver performs the read, 0-based,
	// always 0 for single-antenna plans.
	Antenna int
	// Channel is the 1-based broadcast channel of the read.
	Channel int
	// Slot is the absolute slot of the read, at or after the plan's
	// Arrival.
	Slot int
	// Node is the data node the slot carries.
	Node tree.ID
	// Key and Label identify the item for rendering and live validation;
	// Key is zero on unkeyed trees.
	Key   int64
	Label string
}

// BatchPlan is a conflict-aware tune schedule collecting K data nodes:
// which channel each antenna listens to at which slot, honoring the
// channel-switch cost the planner was configured with. Plans are produced
// by internal/retrieval and executed by Program.QueryBatch (analytic) or
// netcast.Client.ReadBatch (live).
type BatchPlan struct {
	// Arrival is the absolute slot the client arrived at; no step may be
	// scheduled before it.
	Arrival int
	// Antennas is how many receivers the plan assumes (≥ 1). The live
	// TCP path drives exactly one connection and accepts only
	// single-antenna plans.
	Antennas int
	// SwitchCost is the channel-switch penalty in slots the planner
	// honored (a retuned antenna cannot read for SwitchCost slots).
	SwitchCost int
	// Steps are the scheduled reads, ordered by Slot (ties by Antenna).
	Steps []BatchStep
	// Conflicts counts targets not read at their first airing at or after
	// Arrival: two wanted nodes overlapped on the air and one had to spill
	// to a later cycle.
	Conflicts int
	// ExtraCycles is the total number of whole cycles lost to those
	// conflicts (a target read j cycles past its first airing adds j).
	ExtraCycles int
	// Switches counts channel retunes across the schedule (first tune of
	// each antenna is free).
	Switches int
}

// Makespan returns the plan's total span in slots: from arrival through
// the end of the last scheduled read. It is the cost the planners
// minimize, before channel noise adds retry cycles.
func (bp *BatchPlan) Makespan() int {
	if len(bp.Steps) == 0 {
		return 0
	}
	return bp.Steps[len(bp.Steps)-1].Slot - bp.Arrival + 1
}

// BatchPlanner computes a tune schedule collecting the given data nodes,
// for a client arriving at the given absolute slot. internal/retrieval
// provides the implementations (exact DP and greedy).
type BatchPlanner interface {
	PlanBatch(p *Program, arrival int, targets []tree.ID) (*BatchPlan, error)
}

// validatePlan checks a plan is executable against this program: within
// channel range, per-antenna monotone, and every step's slot actually
// airs the promised node.
func (p *Program) validatePlan(plan *BatchPlan) error {
	if plan == nil || len(plan.Steps) == 0 {
		return fmt.Errorf("%w: no steps", ErrBadPlan)
	}
	if plan.Arrival < 0 {
		return fmt.Errorf("%w: negative arrival %d", ErrBadPlan, plan.Arrival)
	}
	if plan.Antennas < 1 {
		return fmt.Errorf("%w: %d antennas", ErrBadPlan, plan.Antennas)
	}
	last := make([]int, plan.Antennas)
	for i := range last {
		last[i] = -1
	}
	for _, st := range plan.Steps {
		if st.Antenna < 0 || st.Antenna >= plan.Antennas {
			return fmt.Errorf("%w: antenna %d outside [0,%d)", ErrBadPlan, st.Antenna, plan.Antennas)
		}
		if st.Channel < 1 || st.Channel > p.k {
			return fmt.Errorf("%w: channel %d outside [1,%d]", ErrBadPlan, st.Channel, p.k)
		}
		if st.Slot < plan.Arrival {
			return fmt.Errorf("%w: slot %d before arrival %d", ErrBadPlan, st.Slot, plan.Arrival)
		}
		if st.Slot <= last[st.Antenna] {
			return fmt.Errorf("%w: antenna %d reads slot %d after slot %d", ErrBadPlan, st.Antenna, st.Slot, last[st.Antenna])
		}
		last[st.Antenna] = st.Slot
		if got := p.buckets[st.Channel-1][p.slotInCycle(st.Slot)-1].Node; got != st.Node {
			return fmt.Errorf("%w: channel %d slot %d airs %v, plan wants %s",
				ErrBadPlan, st.Channel, p.slotInCycle(st.Slot), got, p.t.Label(st.Node))
		}
	}
	return nil
}

// QueryBatch executes a batch plan against the program under env:
// Session.ReadBatch over the analytic medium, one radio per antenna. A
// lost or corrupt read is retried at the same cycle slot one cycle later
// under the shared budget, pushing every later read on the same antenna
// past it, exactly as the live server's cyclic catch-up would. Metrics
// report the whole batch as one session: ProbeWait is arrival to the
// first item in hand, DataWait spans first to last item, TuningTime
// counts every wake-up, and Conflicts/ExtraCycles are copied from the
// plan. On budget exhaustion the partial metrics are returned with an
// error wrapping fault.ErrRetryBudget.
func (p *Program) QueryBatch(plan *BatchPlan, pw Power, env FaultConfig) (Metrics, error) {
	if err := p.validatePlan(plan); err != nil {
		return Metrics{}, err
	}
	s := &Session{Env: env, Channels: p.k}
	radios := make([]Medium, plan.Antennas)
	for i := range radios {
		radios[i] = p.radio(&s.Env)
	}
	return s.ReadBatch(plan, pw, radios)
}

// FoldBatch averages per-arrival batch metrics into a Summary, in slice
// order. EvaluateBatch and the live cross-check tests both fold through
// this one function, so identical metric sequences produce bit-identical
// float summaries.
func FoldBatch(ms []Metrics) Summary {
	var s Summary
	n := float64(len(ms))
	if n == 0 {
		return s
	}
	for _, m := range ms {
		s.ProbeWait += float64(m.ProbeWait) / n
		s.DataWait += float64(m.DataWait) / n
		s.AccessTime += float64(m.AccessTime) / n
		s.TuningTime += float64(m.TuningTime) / n
		s.Retries += float64(m.Retries) / n
		s.Restarts += float64(m.Restarts) / n
		s.Failovers += float64(m.Failovers) / n
		s.Reconnects += float64(m.Reconnects) / n
		s.Conflicts += float64(m.Conflicts) / n
		s.ExtraCycles += float64(m.ExtraCycles) / n
		s.Energy += m.Energy / n
	}
	return s
}

// EvaluateBatch computes the expected batch cost over a uniform arrival
// phase: the planner schedules the same target set at every cycle slot
// and QueryBatch executes each plan under the fault model. Unlike the
// single-key Evaluate there is no weighting across targets — the batch
// itself is the query.
func EvaluateBatch(p *Program, targets []tree.ID, pw Power, fc FaultConfig, planner BatchPlanner) (Summary, error) {
	ms := make([]Metrics, 0, p.cycleLen)
	for a := 0; a < p.cycleLen; a++ {
		plan, err := planner.PlanBatch(p, a, targets)
		if err != nil {
			return Summary{}, fmt.Errorf("sim: batch plan at arrival %d: %w", a, err)
		}
		m, err := p.QueryBatch(plan, pw, fc)
		if err != nil {
			return Summary{}, fmt.Errorf("sim: batch query at arrival %d: %w", a, err)
		}
		ms = append(ms, m)
	}
	return FoldBatch(ms), nil
}
