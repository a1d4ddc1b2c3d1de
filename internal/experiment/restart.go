package experiment

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RestartRow is one backoff setting's averaged outcome in the A12 sweep:
// client cost and availability when the station crashes on a seeded
// downtime schedule and every client rides through the kill with the
// reconnect protocol.
type RestartRow struct {
	// Base is the first reconnect delay of the exponential backoff; Cap
	// bounds its growth. Both are in broadcast slots.
	Base, Cap int
	// Availability is the weighted fraction of queries that completed
	// without exhausting the shared retry budget; HitRate the fraction of
	// completed queries that found their key.
	Availability, HitRate float64
	// Summary is the conditional mean cost over completed queries.
	Summary sim.Summary
	// AccessPenalty is the access-time degradation in percent versus the
	// same trials with no crashes at all.
	AccessPenalty float64
}

// ReplayRow quantifies the server-side cost of a checkpoint cadence: a
// station that checkpoints every Cadence cycle boundaries warm-starts at
// the last boundary before the crash and re-airs the slots between them.
// Replayed slots are pure wall-clock recovery cost — the broadcast is
// phase-continuous, so clients never observe them — which is exactly why
// cadence sweeps separately from the client-side rows.
type ReplayRow struct {
	// Cadence is the checkpoint period in cycle boundaries (1 = every
	// boundary).
	Cadence int
	// MeanReplay and WorstReplay are the average and maximum number of
	// slots a warm start re-airs, over every crash in every trial.
	MeanReplay, WorstReplay float64
	// Writes is the average number of checkpoint writes per trial horizon.
	Writes float64
}

// RestartSweepConfig parameterizes the crash-restart sweep. Zero values
// run 6 trials of 10-item catalogs on 3 channels, 4 downtime windows of
// 3-8 slots each under a 24-wake-up budget, backoff bases {1, 2, 4, 8}
// capped at 32, and checkpoint cadences {1, 2, 4, 8}.
type RestartSweepConfig struct {
	// Bases are the initial backoff delays to sweep.
	Bases []int
	// Cap bounds every backoff schedule in the sweep.
	Cap int
	// Cadences are the checkpoint periods (in cycle boundaries) for the
	// replay table.
	Cadences       []int
	Items          int
	Channels       int
	Trials         int
	Windows        int
	MinLen, MaxLen int
	Seed           int64
	Power          sim.Power
	Workers        int
	MaxRetries     int
}

// RestartSweep quantifies station crash-restart tolerance: seeded
// downtime schedules kill broadcast towers mid-cycle, every client rides
// through the kill under the reconnect protocol, and the sweep compares
// availability and client cost across backoff aggressiveness against a
// crash-free anchor. The downtime windows and reconnect schedule are
// evaluated on the analytic twin (sim.EvaluateReport), which the
// netcast cross-checks pin byte-identical to a real kill/warm-restart
// tower; the companion replay table prices the checkpoint cadence in
// re-aired slots per warm start.
func RestartSweep(cfg RestartSweepConfig) ([]RestartRow, []ReplayRow, error) {
	if len(cfg.Bases) == 0 {
		cfg.Bases = []int{1, 2, 4, 8}
	}
	if cfg.Cap == 0 {
		cfg.Cap = 32
	}
	if len(cfg.Cadences) == 0 {
		cfg.Cadences = []int{1, 2, 4, 8}
	}
	if cfg.Items == 0 {
		cfg.Items = 10
	}
	if cfg.Channels == 0 {
		cfg.Channels = 3
	}
	if cfg.Trials == 0 {
		cfg.Trials = 6
	}
	if cfg.Windows == 0 {
		cfg.Windows = 4
	}
	if cfg.MinLen == 0 {
		cfg.MinLen = 3
	}
	if cfg.MaxLen == 0 {
		cfg.MaxLen = 8
	}
	if cfg.Power == (sim.Power{}) {
		cfg.Power = sim.Power{Active: 1, Doze: 0.05}
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 24
	}

	// One trial: a fresh catalog killed on a trial-specific downtime
	// schedule, evaluated under every backoff base plus the crash-free
	// anchor. Pure function of the trial index, so worker fan-out is
	// output-identical to the serial run.
	type trialOut struct {
		anchor  sim.Summary
		reports []sim.Report
		// kills are the crash slots of this trial's schedule; cycleLen
		// prices their replay per cadence.
		kills    []int
		cycleLen int
		horizon  int
	}
	trials, err := forEachTrial(cfg.Workers, cfg.Trials, func(trial int) (trialOut, error) {
		var out trialOut
		rng := stats.NewRNG(cfg.Seed + int64(trial)*7919)
		items := make([]alphatree.Item, cfg.Items)
		for i := range items {
			items[i] = alphatree.Item{
				Label:  fmt.Sprintf("i%02d", i),
				Key:    int64(i + 1),
				Weight: float64(1 + rng.Intn(100)),
			}
		}
		tr, err := alphatree.HuTucker(items)
		if err != nil {
			return out, err
		}
		sol, err := core.Solve(tr, core.Config{Channels: cfg.Channels})
		if err != nil {
			return out, err
		}
		prog, err := sim.Compile(sol.Alloc, sim.Options{FillWithRootCopies: true})
		if err != nil {
			return out, err
		}
		L := prog.CycleLen()
		lo, hi := 0, 12*L
		// The gap keeps reconnect storms from one crash out of the next
		// window: cap + one full cycle of slack past the worst redial.
		gap := cfg.Cap + 2*L
		downs, err := fault.GenDowntimes(cfg.Seed+int64(trial)*104729+1,
			cfg.Windows, 10*L, cfg.MinLen, cfg.MaxLen, gap)
		if err != nil {
			return out, err
		}
		out.cycleLen = L
		out.horizon = hi
		for _, d := range downs {
			out.kills = append(out.kills, d.StartSlot)
		}

		static, err := sim.NewTimeline(prog, 0)
		if err != nil {
			return out, err
		}
		var demand []sim.Demand
		for _, d := range tr.DataIDs() {
			k, _ := tr.Key(d)
			demand = append(demand, sim.Demand{Key: k, Weight: tr.Weight(d)})
		}
		clean, err := sim.EvaluateReport(static, lo, hi, demand, cfg.Power, sim.FaultConfig{MaxRetries: cfg.MaxRetries})
		if err != nil {
			return out, fmt.Errorf("trial %d anchor: %w", trial, err)
		}
		out.anchor = clean.Summary

		for _, base := range cfg.Bases {
			env := sim.FaultConfig{
				Downtimes:  downs,
				Backoff:    fault.Backoff{Seed: cfg.Seed + int64(trial), Base: base, Cap: cfg.Cap},
				MaxRetries: cfg.MaxRetries,
			}
			rep, err := sim.EvaluateReport(static, lo, hi, demand, cfg.Power, env)
			if err != nil {
				return out, fmt.Errorf("trial %d base %d: %w", trial, base, err)
			}
			out.reports = append(out.reports, rep)
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}

	n := float64(len(trials))
	var anchorAccess float64
	for _, tr := range trials {
		anchorAccess += tr.anchor.AccessTime / n
	}
	rows := make([]RestartRow, len(cfg.Bases))
	for bi, base := range cfg.Bases {
		row := RestartRow{Base: base, Cap: cfg.Cap}
		for _, tr := range trials {
			rep := tr.reports[bi]
			row.Availability += rep.Availability / n
			row.HitRate += rep.HitRate / n
			row.Summary.ProbeWait += rep.Summary.ProbeWait / n
			row.Summary.DataWait += rep.Summary.DataWait / n
			row.Summary.AccessTime += rep.Summary.AccessTime / n
			row.Summary.TuningTime += rep.Summary.TuningTime / n
			row.Summary.Retries += rep.Summary.Retries / n
			row.Summary.Restarts += rep.Summary.Restarts / n
			row.Summary.Failovers += rep.Summary.Failovers / n
			row.Summary.Reconnects += rep.Summary.Reconnects / n
			row.Summary.Energy += rep.Summary.Energy / n
		}
		if anchorAccess > 0 {
			row.AccessPenalty = 100 * (row.Summary.AccessTime/anchorAccess - 1)
		}
		rows[bi] = row
	}

	replay := make([]ReplayRow, len(cfg.Cadences))
	for ci, cadence := range cfg.Cadences {
		row := ReplayRow{Cadence: cadence}
		kills := 0
		for _, tr := range trials {
			period := cadence * tr.cycleLen
			for _, s := range tr.kills {
				// The warm start resumes at the last checkpointed boundary
				// at or before the crash slot and re-airs the difference.
				r := float64(s % period)
				row.MeanReplay += r
				if r > row.WorstReplay {
					row.WorstReplay = r
				}
				kills++
			}
			row.Writes += float64(tr.horizon/period) / n
		}
		if kills > 0 {
			row.MeanReplay /= float64(kills)
		}
		replay[ci] = row
	}
	return rows, replay, nil
}

// RenderRestart writes the A12 tables.
func RenderRestart(w io.Writer, rows []RestartRow, replay []ReplayRow) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "backoff\tavail\thit rate\taccess\taccess pen.\ttuning\tretries\treconnects\tenergy")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d..%d\t%.1f%%\t%.1f%%\t%.3f\t%+.1f%%\t%.3f\t%.3f\t%.3f\t%.3f\n",
			r.Base, r.Cap, 100*r.Availability, 100*r.HitRate,
			r.Summary.AccessTime, r.AccessPenalty, r.Summary.TuningTime,
			r.Summary.Retries, r.Summary.Reconnects, r.Summary.Energy)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "ckpt cadence\tmean replay\tworst replay\twrites/horizon")
	for _, r := range replay {
		fmt.Fprintf(tw, "%d\t%.1f\t%.0f\t%.1f\n", r.Cadence, r.MeanReplay, r.WorstReplay, r.Writes)
	}
	return tw.Flush()
}
