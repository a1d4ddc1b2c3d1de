// Command bcast-station runs the full broadcast-server loop on a
// synthetic shifting-demand trace: the station tracks requests over a key
// universe, keeps the hottest items on the air, and re-optimizes the
// broadcast when demand drifts. Per period it prints the hot set, demand
// coverage and hit ratio.
//
// With -async the rebuild runs the way a live tower does it: each period
// end kicks the epoch planner goroutine, the solved program is staged in
// the epoch registry while the old broadcast stays on the air, and the
// swap (plus the station's hot-set install) lands at the next period
// boundary — demand adaptation with a one-period adoption lag instead of
// a planning stall on the air path.
//
// With -obs addr the process serves its observability endpoint — JSON
// metrics at /metrics, recent trace events at /trace, and net/http/pprof
// under /debug/pprof/ — on that address for the lifetime of the run
// (bind loopback; the endpoint is unauthenticated), holds it open for
// -obs-hold afterwards so a scraper can catch a finished run, and dumps
// a final text snapshot of every metric to stderr on shutdown.
//
// With -checkpoint PATH (async only) the epoch registry is persisted at
// every period boundary with the tower's checkpoint codec, and -resume
// warm-starts the next run from that file: epoch IDs, lifecycle counters
// and the span history continue across the restart instead of resetting,
// while the demand counters — deliberately not checkpointed — are
// relearned from live traffic. A missing or corrupt file falls back to a
// cold start.
//
// Example:
//
//	bcast-station -universe 50 -hot 8 -k 2 -periods 12 -shift 6
//	bcast-station -universe 50 -hot 8 -periods 12 -async
//	bcast-station -periods 6 -async -obs 127.0.0.1:9477 -obs-hold 30s
//	bcast-station -periods 6 -async -checkpoint /tmp/station.ckpt -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"text/tabwriter"
	"time"

	"repro/broadcast"
	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	var (
		universe = flag.Int("universe", 40, "catalog size (keys 1..N)")
		hot      = flag.Int("hot", 6, "broadcast capacity in items")
		k        = flag.Int("k", 2, "broadcast channels")
		periods  = flag.Int("periods", 10, "demand periods to simulate")
		perP     = flag.Int("requests", 500, "requests per period")
		shift    = flag.Int("shift", 5, "period at which demand shifts to the cold tail")
		theta    = flag.Float64("theta", 0.9, "zipf skew of the demand")
		decay    = flag.Float64("decay", 0.4, "demand decay per period")
		seed     = flag.Int64("seed", 1, "random seed")
		async    = flag.Bool("async", false, "plan rebuilds in the background epoch planner and hot-swap at period boundaries")
		obsAddr  = flag.String("obs", "", "serve /metrics, /trace and /debug/pprof on this address (bind loopback, e.g. 127.0.0.1:0)")
		obsHold  = flag.Duration("obs-hold", 0, "keep the -obs endpoint serving this long after the run completes")
		ckpt     = flag.String("checkpoint", "", "persist the epoch registry to this file at each period boundary (-async only)")
		resume   = flag.Bool("resume", false, "warm-start the epoch registry from -checkpoint when it holds a valid snapshot")
	)
	flag.Parse()
	if *resume && *ckpt == "" {
		fmt.Fprintln(os.Stderr, "bcast-station: -resume requires -checkpoint")
		os.Exit(1)
	}
	if *ckpt != "" && !*async {
		fmt.Fprintln(os.Stderr, "bcast-station: -checkpoint requires -async (the epoch-registry path)")
		os.Exit(1)
	}
	var r *obs.Registry
	var obsSrv *obs.Server
	if *obsAddr != "" {
		r = obs.NewWithOptions(obs.Options{Clock: func() int64 { return time.Now().UnixNano() }})
		var err error
		if obsSrv, err = obs.Serve(*obsAddr, r); err != nil {
			fmt.Fprintln(os.Stderr, "bcast-station:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "obs: serving http://%s/metrics\n", obsSrv.Addr())
	}
	var err error
	if *async {
		err = runAsync(*universe, *hot, *k, *periods, *perP, *shift, *theta, *decay, *seed, *ckpt, *resume, os.Stdout, r)
	} else {
		err = run(*universe, *hot, *k, *periods, *perP, *shift, *theta, *decay, *seed, os.Stdout, r)
	}
	if obsSrv != nil {
		if err == nil && *obsHold > 0 {
			time.Sleep(*obsHold)
		}
		obsSrv.Close()
		fmt.Fprintln(os.Stderr, "\nobs: final metrics snapshot")
		r.WriteText(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcast-station:", err)
		os.Exit(1)
	}
}

func run(universe, hot, k, periods, perP, shift int, theta, decay float64, seed int64, w io.Writer, r *obs.Registry) error {
	if universe < hot {
		return fmt.Errorf("universe %d smaller than hot set %d", universe, hot)
	}
	items := make([]broadcast.Item, universe)
	for i := range items {
		items[i] = broadcast.Item{
			Label:  fmt.Sprintf("item-%03d", i+1),
			Key:    int64(i + 1),
			Weight: 1, // flat prior: demand is learned, not assumed
		}
	}
	station, err := broadcast.NewStation(items, broadcast.StationConfig{
		HotSize:  hot,
		Channels: k,
		Decay:    decay,
		Obs:      r,
	})
	if err != nil {
		return err
	}

	rng := stats.NewRNG(seed)
	zipfKey := func(offset int) int64 {
		// Zipf-ranked key with the rank order rotated by offset, so the
		// post-shift era favors a different part of the universe.
		total := 0.0
		weights := make([]float64, universe)
		for r := 0; r < universe; r++ {
			weights[r] = 1 / math.Pow(float64(r+1), theta)
			total += weights[r]
		}
		x := rng.Float64() * total
		for r := 0; r < universe; r++ {
			if x -= weights[r]; x <= 0 {
				return int64((r+offset)%universe + 1)
			}
		}
		return int64(universe)
	}

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "period\trebuilt\tcoverage\thit ratio\tdata wait")
	for p := 1; p <= periods; p++ {
		offset := 0
		if p > shift {
			offset = universe / 2
		}
		hits := 0
		for i := 0; i < perP; i++ {
			if station.Record(zipfKey(offset)) {
				hits++
			}
		}
		rebuilt, coverage, err := station.EndPeriod()
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%v\t%.1f%%\t%.1f%%\t%.3f\n",
			p, rebuilt, 100*coverage, 100*float64(hits)/float64(perP),
			station.Schedule().DataWait())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	totalHits, totalMisses, rebuilds := station.Stats()
	fmt.Fprintf(w, "\ntotals: %d hits, %d misses, %d rebuilds\n", totalHits, totalMisses, rebuilds)
	fmt.Fprintf(w, "final broadcast:\n%s\n", station.Schedule().Alloc)
	return nil
}

// runAsync drives the same trace through the live-tower pipeline: the
// station's three rebuild phases are split apart, with PlanSelection
// running inside an epoch.Planner goroutine that stages each solved
// program in an epoch.Registry, and the swap — registry promotion plus
// the station's hot-set install — landing only at the next period
// boundary, the way the netcast tower promotes epochs only at cycle
// boundaries. The broadcast therefore never waits on a solve; the price
// is one period of adoption lag, visible in the hit-ratio column.
func runAsync(universe, hot, k, periods, perP, shift int, theta, decay float64, seed int64, ckpt string, resume bool, w io.Writer, r *obs.Registry) error {
	if universe < hot {
		return fmt.Errorf("universe %d smaller than hot set %d", universe, hot)
	}
	items := make([]broadcast.Item, universe)
	for i := range items {
		items[i] = broadcast.Item{
			Label:  fmt.Sprintf("item-%03d", i+1),
			Key:    int64(i + 1),
			Weight: 1,
		}
	}
	station, err := broadcast.NewStation(items, broadcast.StationConfig{
		HotSize:  hot,
		Channels: k,
		Decay:    decay,
		Obs:      r,
	})
	if err != nil {
		return err
	}

	// Crash recovery: with -checkpoint the registry is persisted at every
	// period boundary, and -resume warm-starts from that file so epoch IDs,
	// lifecycle counters and the span history continue across the restart.
	// The demand counters are deliberately not checkpointed — the station
	// relearns them from live traffic — so only the epoch lifecycle
	// survives the crash. The station airs one broadcast cycle per demand
	// period, which fixes the slot arithmetic the checkpoint codec checks.
	var (
		reg   *epoch.Registry
		aired int         // absolute slots aired so far
		spans sim.History // span history; the last span is on the air
	)
	// swapIn records a promoted epoch taking the air at slot aired. The
	// station has no clients that could re-request a past slot, so every
	// older span is dropped: the checkpoint stays one span long however
	// many swaps land.
	swapIn := func(e epoch.Entry) {
		spans = append(spans, sim.Span{Start: aired, CycleLen: e.Prog.CycleLen()})
		spans.Compact(aired)
	}
	if resume {
		if c, lerr := epoch.LoadCheckpoint(ckpt); lerr != nil {
			fmt.Fprintf(w, "cold start: %v\n", lerr)
		} else if reg, lerr = epoch.RestoreRegistry(c); lerr != nil {
			fmt.Fprintf(w, "cold start: %v\n", lerr)
			reg = nil
		} else {
			aired, spans = c.Now, c.Spans
			cur, _, nextID, _, _ := reg.Snapshot()
			fmt.Fprintf(w, "warm start: resumed epoch %d at slot %d (%d spans, next epoch %d)\n",
				cur.ID, aired, len(spans), nextID)
			// A checkpointed pending epoch outlived the process, but its hot-set
			// selection did not: promote it so the lifecycle stays monotone and
			// let the station keep its relearned selection.
			if entry, swapped := reg.TrySwap(); swapped {
				swapIn(entry)
				fmt.Fprintf(w, "warm start: promoted checkpointed pending epoch %d (hot set relearned)\n", entry.ID)
			}
		}
	}
	if reg == nil {
		var err error
		reg, err = epoch.NewRegistry(station.Schedule().Program())
		if err != nil {
			return err
		}
		spans = sim.History{{Start: 0, CycleLen: station.Schedule().Program().CycleLen()}}
	}
	// The planner snapshot: the selection the next build should plan for,
	// and the schedule that build produced (installed only when its epoch
	// is promoted).
	type plan struct {
		sel   []broadcast.HotKey
		sched *broadcast.Schedule
	}
	var pmu sync.Mutex
	var next []broadcast.HotKey
	var built *plan
	planner := epoch.NewPlanner(context.Background(), reg, func(ctx context.Context) (*sim.Program, error) {
		pmu.Lock()
		sel := append([]broadcast.HotKey(nil), next...)
		pmu.Unlock()
		sched, err := station.PlanSelection(sel)
		if err != nil {
			return nil, err
		}
		pmu.Lock()
		built = &plan{sel: sel, sched: sched}
		pmu.Unlock()
		return sched.Program(), nil
	}, epoch.PlannerOptions{Obs: r})
	defer planner.Close()

	// awaitPlanner blocks until the kicked build has either staged or
	// failed, so each period's table row is deterministic.
	awaitPlanner := func(builds int) error {
		for {
			st, lastErr := planner.Stats()
			if st.Staged+st.Failed >= builds {
				if st.Failed > 0 {
					return lastErr
				}
				return nil
			}
			time.Sleep(time.Millisecond)
		}
	}

	rng := stats.NewRNG(seed)
	zipfKey := func(offset int) int64 {
		total := 0.0
		weights := make([]float64, universe)
		for r := 0; r < universe; r++ {
			weights[r] = 1 / math.Pow(float64(r+1), theta)
			total += weights[r]
		}
		x := rng.Float64() * total
		for r := 0; r < universe; r++ {
			if x -= weights[r]; x <= 0 {
				return int64((r+offset)%universe + 1)
			}
		}
		return int64(universe)
	}

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "period\tepoch\tswapped\tcoverage\thit ratio\tdata wait")
	builds := 0
	for p := 1; p <= periods; p++ {
		// Period boundary: promote whatever the planner staged last
		// period and install its hot set — the tower's cycle-boundary
		// swap, one period behind the demand that justified it.
		entry, swapped := reg.TrySwap()
		if swapped {
			swapIn(entry)
			pmu.Lock()
			done := built
			pmu.Unlock()
			// A promoted epoch whose plan snapshot is missing means the
			// build failed; InstallPlanned surfaces that as a typed error
			// instead of dereferencing a nil plan or silently keeping the
			// stale hot set.
			var sel []broadcast.HotKey
			var sched *broadcast.Schedule
			if done != nil {
				sel, sched = done.sel, done.sched
			}
			if err := station.InstallPlanned(sel, sched); err != nil {
				return err
			}
		}

		offset := 0
		if p > shift {
			offset = universe / 2
		}
		hits := 0
		for i := 0; i < perP; i++ {
			if station.Record(zipfKey(offset)) {
				hits++
			}
		}

		sel, coverage := station.ClosePeriod()
		pmu.Lock()
		next = sel
		pmu.Unlock()
		planner.Request()
		builds++
		if err := awaitPlanner(builds); err != nil {
			return err
		}

		fmt.Fprintf(tw, "%d\t%d\t%v\t%.1f%%\t%.1f%%\t%.3f\n",
			p, entry.ID, swapped, 100*coverage, 100*float64(hits)/float64(perP),
			station.Schedule().DataWait())

		// Period boundary: one cycle of the active program has aired;
		// checkpoint the registry so a killed station warm-starts here.
		aired += entry.Prog.CycleLen()
		if ckpt != "" {
			if err := epoch.WriteCheckpoint(ckpt, reg.CheckpointState(aired, spans)); err != nil {
				return err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	totalHits, totalMisses, rebuilds := station.Stats()
	st, _ := planner.Stats()
	staged, swapped := reg.Stats()
	fmt.Fprintf(w, "\ntotals: %d hits, %d misses, %d installs; planner: %d builds, %d staged, %d failed; registry: %d staged, %d swapped\n",
		totalHits, totalMisses, rebuilds, st.Builds, st.Staged, st.Failed, staged, swapped)
	fmt.Fprintf(w, "final broadcast:\n%s\n", station.Schedule().Alloc)
	return nil
}
