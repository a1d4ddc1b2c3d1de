package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/broadcast"
	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/searchstats"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// demand is a workload.Drift hotspot rotation over keys 1..n: in period
// p, key i+1 has the weight of rank (i - p*step) mod n of period 0. It
// keeps one period's weights instead of materialising every period.
type demand struct {
	n, step int
	base    []float64 // weight of each rank, 0-based
	cdf     []float64
	labels  []string
}

func newDemand(n, step int, theta float64) (*demand, error) {
	snaps, err := workload.Drift(workload.DriftConfig{
		Kind: workload.HotspotRotate, Universe: n, Periods: 2, Theta: theta, RotateStep: step,
	})
	if err != nil {
		return nil, err
	}
	d := &demand{n: n, step: step, base: make([]float64, n), cdf: make([]float64, n), labels: make([]string, n)}
	var sum float64
	for i, it := range snaps[0] {
		d.base[i] = it.Weight
		d.labels[i] = it.Label
		sum += it.Weight
		d.cdf[i] = sum
	}
	for i, it := range snaps[1] {
		if it.Weight != d.weight(1, i) {
			return nil, fmt.Errorf("demand: rotation disagrees with workload.Drift at key %d", it.Key)
		}
	}
	return d, nil
}

// weight returns the demand weight of key index i in period p.
func (d *demand) weight(p, i int) float64 {
	return d.base[((i-p*d.step)%d.n+d.n)%d.n]
}

// sample draws a key in proportion to its weight in period p.
func (d *demand) sample(rng *rand.Rand, p int) int64 {
	r := sort.SearchFloat64s(d.cdf, rng.Float64()*d.cdf[d.n-1])
	if r >= d.n {
		r = d.n - 1
	}
	return int64((r+p*d.step)%d.n + 1)
}

// items returns the catalog of period 0.
func (d *demand) items() []alphatree.Item {
	out := make([]alphatree.Item, d.n)
	for i := range out {
		out[i] = alphatree.Item{Label: d.labels[i], Key: int64(i + 1), Weight: d.weight(0, i)}
	}
	return out
}

// stages times each planner layer call and, in traced runs, records its
// span and allocations.
type stages struct {
	tr  *tracer
	mem *allocMeter
	ns  map[string][]float64
	// Search counters summed over every solve.
	search    searchstats.Stats
	fallbacks int
}

func newStages(tr *tracer) *stages {
	return &stages{tr: tr, mem: newAllocMeter(tr != nil), ns: map[string][]float64{}}
}

func (s *stages) call(name string, parent int, f func() error) error {
	s.mem.start()
	sp := s.tr.begin(name, parent, -1)
	start := time.Now()
	err := f()
	d := time.Since(start)
	s.tr.end(sp)
	s.mem.stop(name)
	s.ns[name] = append(s.ns[name], float64(d.Nanoseconds()))
	return err
}

// planCatalog runs catalog → alphatree → core → sim.Compile for items
// sorted by key.
func (s *stages) planCatalog(items []alphatree.Item, cfg core.Config, opt sim.Options, parent int) (*core.Solution, *sim.Program, error) {
	var t *tree.Tree
	var sol *core.Solution
	var prog *sim.Program
	err := s.call("alphatree.build", parent, func() (err error) {
		t, err = alphatree.HuTucker(items)
		return err
	})
	if err == nil {
		err = s.call("core.solve", parent, func() (err error) {
			sol, err = core.Solve(t, cfg)
			return err
		})
	}
	if err == nil {
		err = s.call("sim.compile", parent, func() (err error) {
			prog, err = sim.Compile(sol.Alloc, opt)
			return err
		})
	}
	if err != nil {
		return nil, nil, err
	}
	s.search.Add(sol.Stats)
	if sol.LimitErr != nil {
		s.fallbacks++
	}
	return sol, prog, nil
}

// staged is one program the station put into the registry.
type staged struct {
	period   int
	id       uint32
	prog     *sim.Program
	dataWait float64
	sel      []broadcast.HotKey
	sched    *broadcast.Schedule
	at       time.Time // when it was staged
	replan   time.Duration
}

// stationPlanner closes demand periods at a broadcast.Station and stages
// the replanned program in the tower's registry: period close → catalog
// → alphatree → core → sim.Compile → epoch.Stage, each layer called and
// timed separately.
type stationPlanner struct {
	station *broadcast.Station
	reg     *epoch.Registry
	labels  []string
	cfg     core.Config
	opt     sim.Options
	st      *stages
	staged  []staged
	digest  uint64
}

// replan closes period p and stages its program.
func (sp *stationPlanner) replan(p int) error {
	start := time.Now()
	root := sp.st.tr.begin("period", -1, -1)
	defer sp.st.tr.end(root)
	var sel []broadcast.HotKey
	if err := sp.st.call("hotset.close_period", root, func() error {
		sel, _ = sp.station.ClosePeriod()
		return nil
	}); err != nil {
		return err
	}
	if len(sel) == 0 {
		return fmt.Errorf("period %d: empty hot set", p)
	}
	// The catalog of the selection, as Station.PlanSelection builds it.
	sort.Slice(sel, func(i, j int) bool { return sel[i].Key < sel[j].Key })
	items := make([]alphatree.Item, len(sel))
	for i, h := range sel {
		w := h.Weight
		if w <= 0 {
			w = 1
		}
		items[i] = alphatree.Item{Label: sp.labels[h.Key-1], Key: h.Key, Weight: w}
	}
	sol, prog, err := sp.st.planCatalog(items, sp.cfg, sp.opt, root)
	if err != nil {
		return fmt.Errorf("period %d: %w", p, err)
	}
	var id uint32
	if err := sp.st.call("epoch.stage", root, func() (err error) {
		id, err = sp.reg.Stage(prog)
		return err
	}); err != nil {
		return fmt.Errorf("period %d: %w", p, err)
	}
	now := time.Now()
	sp.staged = append(sp.staged, staged{
		period: p, id: id, prog: prog, dataWait: sol.Cost, sel: sel,
		sched: &broadcast.Schedule{Alloc: sol.Alloc, Optimal: sol.Optimal, Used: sol.Used, LimitErr: sol.LimitErr, Stats: sol.Stats},
		at:    now, replan: now.Sub(start),
	})
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%d|%d|%d|%x", sp.digest, p, id, prog.CycleLen(), math.Float64bits(sol.Cost))
	sp.digest = h.Sum64()
	return nil
}

// install puts the hot set of a landed epoch on the station.
func (sp *stationPlanner) install(id uint32) {
	for i := len(sp.staged) - 1; i >= 0; i-- {
		if s := sp.staged[i]; s.id == id {
			sp.station.Install(s.sel, s.sched)
			return
		}
	}
}
