package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/broadcast"
	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/netcast"
	"repro/internal/obs"
	"repro/internal/sim"
)

// channels is the broadcast width of every workload.
const channels = 3

// A run builds its set-up at least setupReps times, and until the builds
// have taken setupMin; setup_s is their median and the last build is the
// one measured. Each build starts after a garbage collection, as the
// first one in a fresh process does.
const (
	setupReps = 9
	setupMin  = time.Second
)

// The static tower's catalog is re-planned in every replanEvery-th chunk
// of the timed window. A program of the static tower or of the replan
// workload is evaluated in every evalEvery-th chunk, so the evaluations
// (about half a second each at 1,000 keys) are spread over the whole
// window and measure_ms is a mean over chunks/evalEvery of them.
const (
	replanEvery = 1
	evalEvery   = 2
)

// sizes fixes the shape of one workload.
type sizes struct {
	universe  int     // catalog or key-universe size
	theta     float64 // Zipf skew of demand
	step      int     // hotspot rotation per period, in ranks
	hot       int     // station hot-set size (0: static catalog)
	period    int     // slots per demand period (0: static tower)
	inject    int     // uplink requests sampled into each period
	gapMax    int     // idle slots between a client's sessions (0: one cycle)
	rangeFrac float64 // share of sessions that are range scans
	rangeSpan int64   // keys per range scan
	maxExp    int     // exact-search expansion cap
	horizon   int     // slots covered by the seed-determined metrics
	// measureAt are the periods whose staged program is measured as it is
	// staged. Without them, the first program aired, which the seed does
	// not change, is measured in every evalEvery-th chunk of the timed
	// window.
	measureAt []int
}

var workloads = map[string]sizes{
	// lookup: a static tower airing a 1,000-key catalog; per-slot tower
	// cost and the client protocol dominate.
	"lookup": {universe: 1000, theta: 0.8, rangeFrac: 0.1, rangeSpan: 8, horizon: 6_000_000},
	// adapt: an adaptive tower over a drifting 200-key universe, 12 keys
	// on the air, exact search, epoch swaps beside the lookups.
	"adapt": {universe: 200, theta: 1.0, step: 2, hot: 12, period: 128, gapMax: 8, rangeFrac: 0.25, rangeSpan: 4,
		maxExp: 20000, horizon: 128 * 600, measureAt: multiples(8, 1000)},
	// replan: 1,000 of 10,000 drifting keys on the air; the sorting
	// heuristic and Hu–Tucker at scale dominate wall time.
	"replan": {universe: 10000, theta: 0.8, step: 100, hot: 1000, period: 2048, inject: 1000,
		horizon: 2048 * 150},
}

// multiples returns step, 2·step, …, n·step.
func multiples(step, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (i + 1) * step
	}
	return out
}

// draw makes a session arriving at slot t around a sampled key: a point
// lookup of it, or with probability rangeFrac a scan of the rangeSpan
// keys starting at it (clamped to the universe).
func (sz sizes) draw(rng *rand.Rand, t int, key int64) job {
	if rng.Float64() >= sz.rangeFrac {
		return job{arrival: t, key: key}
	}
	lo := min(key, int64(sz.universe)-sz.rangeSpan+1)
	return job{arrival: t, key: key, isRange: true, lo: lo, hi: lo + sz.rangeSpan - 1}
}

// bench is one set-up of a workload, ready to run.
type bench struct {
	sz       sizes
	lv       *live
	sp       *stationPlanner // nil on the static tower
	st       *stages
	static   *core.Solution // the static tower's plan
	catalog  []alphatree.Item
	setupSec []float64
}

// newBench builds the workload's set-up setupReps times and keeps the
// last build.
func newBench(name string, seed int64, tr *tracer) (*bench, error) {
	sz, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	b := &bench{sz: sz, st: newStages(tr)}
	begin := time.Now()
	for rep := 0; rep < setupReps || time.Since(begin) < setupMin; rep++ {
		if b.lv != nil {
			b.lv.discard()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if sz.hot == 0 {
			err = b.setupStatic(seed, tr)
		} else {
			err = b.setupStation(seed, tr)
		}
		if err != nil {
			return nil, err
		}
		b.setupSec = append(b.setupSec, time.Since(start).Seconds())
	}
	return b, nil
}

// discard releases a set-up that is never run.
func (lv *live) discard() {
	lv.srv.Close()
	lv.ln.Close()
}

func towerObs(tr *tracer) (*obs.Registry, *obs.Counter) {
	if tr == nil {
		return nil, nil
	}
	r := obs.New()
	return r, r.Counter("netcast_frames_total")
}

// setupStatic plans the catalog once and puts it on a static tower.
func (b *bench) setupStatic(seed int64, tr *tracer) error {
	sz := b.sz
	d, err := newDemand(sz.universe, 1, sz.theta)
	if err != nil {
		return err
	}
	b.catalog = d.items()
	sol, prog, err := planStatic(newStages(nil), b.catalog)
	if err != nil {
		return err
	}
	r, frames := towerObs(tr)
	srv, err := netcast.NewServerOpts(prog, netcast.ServerOptions{Obs: r})
	if err != nil {
		return err
	}
	b.static = sol
	cycle := prog.CycleLen()
	hooks := liveHooks{
		draw:  func(rng *rand.Rand, t int) job { return sz.draw(rng, t, d.sample(rng, 0)) },
		gap:   func(rng *rand.Rand) int { return rng.Intn(cycle) },
		onAir: func(int64) bool { return true },
		offClock: func(k int) error {
			if k%replanEvery == 0 {
				if err := b.replanStatic(); err != nil {
					return err
				}
			}
			if k%evalEvery == evalEvery/2 {
				return b.evaluate(prog)
			}
			return nil
		},
	}
	b.lv, err = newLive(srv, nil, prog, frames, hooks, tr, seed)
	return err
}

// planStatic plans the static tower's catalog: Hu–Tucker, Auto (the
// sorting heuristic at this size), no root copies.
func planStatic(st *stages, items []alphatree.Item) (*core.Solution, *sim.Program, error) {
	return st.planCatalog(items, core.Config{Channels: channels}, sim.Options{}, -1)
}

// settle collects garbage with the clock stopped, so a call the
// benchmark times off the clock starts with no collection under way and
// whether one falls inside it does not depend on what ran before.
func (b *bench) settle() {
	start := time.Now()
	runtime.GC()
	b.lv.pause(start, time.Now())
}

// replanStatic re-plans the static tower's catalog with the clock
// stopped, through to an encoded registry entry, and records the time as
// "replan".
func (b *bench) replanStatic() error {
	b.settle()
	start := time.Now()
	_, prog, err := planStatic(b.st, b.catalog)
	if err == nil {
		err = b.st.call("epoch.stage", -1, func() error {
			_, err := epoch.NewRegistry(prog)
			return err
		})
	}
	end := time.Now()
	b.st.ns["replan"] = append(b.st.ns["replan"], float64(end.Sub(start).Nanoseconds()))
	b.lv.pause(start, end)
	return err
}

// evaluate runs sim.Evaluate, the exact expectation behind
// Schedule.Measure, with the clock stopped.
func (b *bench) evaluate(p *sim.Program) error {
	b.settle()
	start := time.Now()
	err := b.st.call("sim.evaluate", -1, func() error {
		_, err := sim.Evaluate(p, power)
		return err
	})
	b.lv.pause(start, time.Now())
	return err
}

// setupStation starts a broadcast.Station over the drifting universe and
// an adaptive tower airing its initial plan.
func (b *bench) setupStation(seed int64, tr *tracer) error {
	sz := b.sz
	d, err := newDemand(sz.universe, sz.step, sz.theta)
	if err != nil {
		return err
	}
	station, err := broadcast.NewStation(d.items(), broadcast.StationConfig{
		HotSize: sz.hot, Channels: channels, MaxExpanded: sz.maxExp,
	})
	if err != nil {
		return err
	}
	// Root copies let a descent start mid-cycle, so descents can straddle
	// a swap and restart.
	opt := sim.Options{FillWithRootCopies: true}
	first, err := sim.Compile(station.Schedule().Alloc, opt)
	if err != nil {
		return err
	}
	reg, err := epoch.NewRegistry(first)
	if err != nil {
		return err
	}
	r, frames := towerObs(tr)
	srv, err := netcast.NewAdaptiveServer(reg, netcast.ServerOptions{Obs: r})
	if err != nil {
		return err
	}
	st := newStages(tr)
	b.st = st
	b.sp = &stationPlanner{
		station: station, reg: reg, labels: d.labels, st: st, opt: opt,
		cfg: core.Config{Channels: channels, Polish: true, MaxExpanded: sz.maxExp, FallbackOnLimit: true},
	}
	uplink := rand.New(rand.NewSource(seed*7919 + 17))
	gapMax := sz.gapMax
	if gapMax == 0 {
		gapMax = first.CycleLen()
	}
	var lv *live
	hooks := liveHooks{
		draw:  func(rng *rand.Rand, t int) job { return sz.draw(rng, t, d.sample(rng, t/sz.period)) },
		gap:   func(rng *rand.Rand) int { return rng.Intn(gapMax) },
		onAir: station.Record,
		atSlot: func(t int) error {
			if t == 0 || t%sz.period != 0 {
				return nil
			}
			p := t / sz.period
			for i := 0; i < sz.inject; i++ {
				station.Record(d.sample(uplink, p-1))
			}
			if err := b.sp.replan(p); err != nil {
				return err
			}
			lv.staging = true
			if slices.Contains(sz.measureAt, p) {
				return b.evaluate(b.sp.staged[len(b.sp.staged)-1].prog)
			}
			return nil
		},
		onSwap: func(e tlEntry) { b.sp.install(e.id) },
	}
	if len(sz.measureAt) == 0 {
		hooks.offClock = func(k int) error {
			if k%evalEvery != evalEvery/2 {
				return nil
			}
			return b.evaluate(first)
		}
	}
	lv, err = newLive(srv, reg, first, frames, hooks, tr, seed)
	b.lv = lv
	return err
}
