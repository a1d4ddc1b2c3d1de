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

// OutageRow is one watchdog setting's averaged outcome in the A10 sweep.
type OutageRow struct {
	// Watchdog is the missed-tick threshold driving replans; negative is
	// the no-replan baseline, where clients survive on failover alone.
	Watchdog int
	// Replans is the average number of survivor replans the watchdog
	// staged per trial (dark detections and recoveries both replan).
	Replans float64
	// Availability is the weighted fraction of queries that completed
	// without exhausting the retry budget; HitRate the fraction of
	// completed queries that found their key.
	Availability, HitRate float64
	// Summary is the conditional mean cost over completed queries.
	Summary sim.Summary
	// AccessPenalty is the access-time degradation in percent versus the
	// same trials with no outages at all.
	AccessPenalty float64
}

// OutageSweepConfig parameterizes the channel-outage sweep. Zero values
// run 6 trials of 10-item catalogs on 3 channels, 4 outage windows of
// 25-60 slots each under a 12-wake-up budget, over watchdogs
// {-1, 2, 3, 5} — harsh enough that the no-replan baseline visibly
// loses availability.
type OutageSweepConfig struct {
	// Watchdogs are the missed-tick thresholds to sweep; a negative entry
	// is the no-replan baseline.
	Watchdogs      []int
	Items          int
	Channels       int
	Trials         int
	Windows        int
	MinLen, MaxLen int
	Seed           int64
	Power          sim.Power
	Workers        int
	MaxRetries     int
	DeadAir        int
}

// ReplanPrograms builds one survivor program per watchdog detection
// event: the catalog is re-solved onto the event's live channels and
// the layout remapped back to full tower width, so a full-width tower
// can stage it directly — the same pipeline broadcast.Optimize runs for
// a live planner. Recovery events (all channels live) replan to full
// width.
func ReplanPrograms(base *sim.Program, events []fault.LiveEvent, k int) ([]*sim.Program, error) {
	progs := make([]*sim.Program, len(events))
	for i, ev := range events {
		sol, err := core.Solve(base.Tree(), core.Config{Channels: k, LiveChannels: ev.Live})
		if err != nil {
			return nil, err
		}
		prog, err := sim.Compile(sol.Alloc, sim.Options{FillWithRootCopies: true})
		if err != nil {
			return nil, err
		}
		if len(sol.Live) > 0 && len(sol.Live) < k {
			if prog, err = prog.Remap(sol.Live, k); err != nil {
				return nil, err
			}
		}
		progs[i] = prog
	}
	return progs, nil
}

// ReplanTimeline places a watchdog's replans on the adaptive timeline
// exactly as the tower puts them on the air: event i stages progs[i] at
// its detection slot under the epoch ID the tower's registry would give
// it, through sim.Timeline.Stage — so a staged program the next event
// replaces before its swap slot never airs, as on the tower. Returns the
// timeline and how many replans actually aired.
func ReplanTimeline(base *sim.Program, events []fault.LiveEvent, progs []*sim.Program) (*sim.Timeline, int, error) {
	if len(events) != len(progs) {
		return nil, 0, fmt.Errorf("experiment: %d events but %d programs", len(events), len(progs))
	}
	tl, err := sim.NewTimeline(base, 1)
	if err != nil {
		return nil, 0, err
	}
	for i, ev := range events {
		if _, err := tl.Stage(progs[i], uint32(i+2), ev.Slot); err != nil {
			return nil, 0, err
		}
	}
	return tl, len(tl.Entries()) - 1, nil
}

// OutageSweep quantifies channel-outage tolerance end to end: seeded
// outage schedules strike broadcast towers, and the sweep compares
// client cost and availability when the tower replans onto the
// survivors at different watchdog sensitivities against a no-replan
// baseline where clients survive on the failover protocol alone. The
// replans ride the epoch hot-swap machinery: each detection stages a
// survivor program at exactly the slot the netcast watchdog would
// report, placed on the analytic timeline with the registry's
// stage-replacement rule.
func OutageSweep(cfg OutageSweepConfig) ([]OutageRow, error) {
	if len(cfg.Watchdogs) == 0 {
		cfg.Watchdogs = []int{-1, 2, 3, 5}
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
		cfg.MinLen = 25
	}
	if cfg.MaxLen == 0 {
		cfg.MaxLen = 60
	}
	if cfg.Power == (sim.Power{}) {
		cfg.Power = sim.Power{Active: 1, Doze: 0.05}
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 12
	}
	if cfg.DeadAir == 0 {
		cfg.DeadAir = sim.DefaultDeadAir
	}

	// One trial: a fresh catalog struck by a trial-specific outage
	// realization, evaluated under every watchdog plus the outage-free
	// anchor. Pure function of the trial index, so worker fan-out is
	// output-identical to the serial run.
	type trialOut struct {
		anchor  sim.Summary
		reports []sim.Report
		replans []int
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
		outages, err := fault.GenOutages(cfg.Seed+int64(trial)*104729+1,
			cfg.Channels, cfg.Windows, 10*L, cfg.MinLen, cfg.MaxLen)
		if err != nil {
			return out, err
		}
		env := sim.FaultConfig{Outages: outages, MaxRetries: cfg.MaxRetries, DeadAir: cfg.DeadAir}

		var demand []sim.Demand
		for _, d := range tr.DataIDs() {
			k, _ := tr.Key(d)
			demand = append(demand, sim.Demand{Key: k, Weight: tr.Weight(d)})
		}
		static, err := sim.NewTimeline(prog, 0)
		if err != nil {
			return out, err
		}
		clean, err := sim.EvaluateReport(static, lo, hi, demand, cfg.Power,
			sim.FaultConfig{MaxRetries: cfg.MaxRetries, DeadAir: cfg.DeadAir})
		if err != nil {
			return out, fmt.Errorf("trial %d anchor: %w", trial, err)
		}
		out.anchor = clean.Summary
		for _, w := range cfg.Watchdogs {
			tl, replans := (*sim.Timeline)(nil), 0
			if w > 0 {
				events := outages.Detections(cfg.Channels, w, hi)
				progs, err := ReplanPrograms(prog, events, cfg.Channels)
				if err != nil {
					return out, fmt.Errorf("trial %d watchdog %d: %w", trial, w, err)
				}
				if tl, replans, err = ReplanTimeline(prog, events, progs); err != nil {
					return out, fmt.Errorf("trial %d watchdog %d: %w", trial, w, err)
				}
			} else {
				tl = static
			}
			rep, err := sim.EvaluateReport(tl, lo, hi, demand, cfg.Power, env)
			if err != nil {
				return out, fmt.Errorf("trial %d watchdog %d: %w", trial, w, err)
			}
			out.reports = append(out.reports, rep)
			out.replans = append(out.replans, replans)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	n := float64(len(trials))
	var anchorAccess float64
	for _, tr := range trials {
		anchorAccess += tr.anchor.AccessTime / n
	}
	rows := make([]OutageRow, len(cfg.Watchdogs))
	for wi, w := range cfg.Watchdogs {
		row := OutageRow{Watchdog: w}
		for _, tr := range trials {
			rep := tr.reports[wi]
			row.Replans += float64(tr.replans[wi]) / n
			row.Availability += rep.Availability / n
			row.HitRate += rep.HitRate / n
			row.Summary.ProbeWait += rep.Summary.ProbeWait / n
			row.Summary.DataWait += rep.Summary.DataWait / n
			row.Summary.AccessTime += rep.Summary.AccessTime / n
			row.Summary.TuningTime += rep.Summary.TuningTime / n
			row.Summary.Retries += rep.Summary.Retries / n
			row.Summary.Restarts += rep.Summary.Restarts / n
			row.Summary.Failovers += rep.Summary.Failovers / n
			row.Summary.Energy += rep.Summary.Energy / n
		}
		if anchorAccess > 0 {
			row.AccessPenalty = 100 * (row.Summary.AccessTime/anchorAccess - 1)
		}
		rows[wi] = row
	}
	return rows, nil
}

// RenderOutage writes the A10 table.
func RenderOutage(w io.Writer, rows []OutageRow) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "watchdog\treplans\tavail\thit rate\taccess\taccess pen.\ttuning\tretries\tfailovers\tenergy")
	for _, r := range rows {
		wd := fmt.Sprintf("%d", r.Watchdog)
		if r.Watchdog < 0 {
			wd = "off"
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f%%\t%.1f%%\t%.3f\t%+.1f%%\t%.3f\t%.3f\t%.3f\t%.3f\n",
			wd, r.Replans, 100*r.Availability, 100*r.HitRate,
			r.Summary.AccessTime, r.AccessPenalty, r.Summary.TuningTime,
			r.Summary.Retries, r.Summary.Failovers, r.Summary.Energy)
	}
	return tw.Flush()
}
