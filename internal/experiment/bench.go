package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/datatree"
	"repro/internal/retrieval"
	"repro/internal/searchstats"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// PerfCase is one measured configuration of the perf suite: wall time per
// run plus the aggregated search counters, so a perf regression can be
// attributed (more states generated? worse dominance hit rate? deeper
// queue?) without re-profiling.
type PerfCase struct {
	Name string `json:"name"`
	// Runs is how many times the case executed; NanosPerRun is the mean
	// wall time of one execution.
	Runs        int   `json:"runs"`
	NanosPerRun int64 `json:"nanos_per_run"`
	// Cost is the (identical across runs) objective value, pinning that a
	// perf change did not alter results.
	Cost float64 `json:"cost"`
	// Stats aggregates the per-search counters over all runs.
	Stats searchstats.Stats `json:"stats"`
}

// PerfReport is the machine-readable output of the perf suite, written as
// BENCH_*.json by cmd/bcast-bench so successive changes leave a perf
// trajectory in the repository.
type PerfReport struct {
	Suite string     `json:"suite"`
	Seed  int64      `json:"seed"`
	Runs  int        `json:"runs"`
	Cases []PerfCase `json:"cases"`
}

// PerfConfig parameterizes the perf suite.
type PerfConfig struct {
	// Seed drives the workload generation. Defaults to 1.
	Seed int64
	// Runs repeats each case; the mean wall time is reported. Defaults
	// to 5.
	Runs int
	// Workers configures the parallel harness case (<= 0: GOMAXPROCS).
	Workers int
}

// Perf measures the search engines and the experiment harness on fixed
// workloads: the pruned and unpruned k-channel searches, the provably
// exact configuration, the single-channel data-tree search, and the Fig.14
// harness serially versus fanned across workers.
func Perf(cfg PerfConfig) (*PerfReport, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 5
	}
	report := &PerfReport{Suite: "bcast-bench perf", Seed: cfg.Seed, Runs: cfg.Runs}

	rng := stats.NewRNG(cfg.Seed)
	topoTree, err := workload.Random(workload.RandomConfig{
		NumData: 9,
		Dist:    stats.Uniform{Lo: 1, Hi: 100},
	}, rng)
	if err != nil {
		return nil, err
	}
	dataTree, err := workload.FullMAry(4, 3, stats.Normal{Mu: 100, Sigma: 20}, stats.NewRNG(cfg.Seed))
	if err != nil {
		return nil, err
	}

	measure := func(name string, run func() (float64, searchstats.Stats, error)) error {
		c := PerfCase{Name: name, Runs: cfg.Runs}
		start := time.Now() //nolint:bcast-determinism // wall-clock latency is the measurement itself; it never feeds simulated results
		for i := 0; i < cfg.Runs; i++ {
			cost, st, err := run()
			if err != nil {
				return fmt.Errorf("perf case %s: %w", name, err)
			}
			c.Cost = cost
			c.Stats.Add(st)
		}
		c.NanosPerRun = time.Since(start).Nanoseconds() / int64(cfg.Runs) //nolint:bcast-determinism // elapsed wall time is the reported perf metric, not simulation state
		report.Cases = append(report.Cases, c)
		return nil
	}

	topoCase := func(opt topo.Options) func() (float64, searchstats.Stats, error) {
		return func() (float64, searchstats.Stats, error) {
			res, err := topo.Search(topoTree, opt)
			if err != nil {
				return 0, searchstats.Stats{}, err
			}
			return res.Cost, res.Stats, nil
		}
	}
	if err := measure("topo/pruned/k=2", topoCase(topo.Options{
		Channels: 2, Prune: topo.AllPrunes(), TightBound: true,
	})); err != nil {
		return nil, err
	}
	if err := measure("topo/unpruned/k=2", topoCase(topo.Options{
		Channels: 2, TightBound: true,
	})); err != nil {
		return nil, err
	}
	if err := measure("topo/exact/k=2", topoCase(topo.Options{
		Channels: 2, Prune: topo.Prune{Property1: true, DataRank: true}, TightBound: true,
	})); err != nil {
		return nil, err
	}
	if err := measure("datatree/full", func() (float64, searchstats.Stats, error) {
		res, err := datatree.Search(dataTree, datatree.AllOptions())
		if err != nil {
			return 0, searchstats.Stats{}, err
		}
		return res.Cost, res.Stats, nil
	}); err != nil {
		return nil, err
	}

	// Hu–Tucker over lookup's 1,000-key monotone Zipf(0.8) catalog. Cost
	// pins the tree's weighted path length so a perf change cannot
	// silently change the tree.
	zipf := stats.Zipf{Theta: 0.8}
	zipfItems := make([]alphatree.Item, 1000)
	for i := range zipfItems {
		zipfItems[i] = alphatree.Item{Label: fmt.Sprintf("k%d", i+1), Key: int64(i + 1), Weight: zipf.Sample(rng)}
	}
	if err := measure("alphatree/hutucker/n=1000", func() (float64, searchstats.Stats, error) {
		t, err := alphatree.HuTucker(zipfItems)
		if err != nil {
			return 0, searchstats.Stats{}, err
		}
		return alphatree.WeightedPathLength(t), searchstats.Stats{}, nil
	}); err != nil {
		return nil, err
	}

	// The batch retrieval planner cases measure planning cost alone: the
	// catalog is solved and compiled once outside the timer, then each
	// run plans the same batch from scratch. Cost pins the plan makespan
	// so a perf change cannot silently alter schedules.
	items := make([]alphatree.Item, 24)
	for i := range items {
		items[i] = alphatree.Item{
			Label:  fmt.Sprintf("i%02d", i),
			Key:    int64(i + 1),
			Weight: float64(1 + rng.Intn(100)),
		}
	}
	catalog, err := alphatree.HuTucker(items)
	if err != nil {
		return nil, err
	}
	sol, err := core.Solve(catalog, core.Config{Channels: 2})
	if err != nil {
		return nil, err
	}
	prog, err := sim.Compile(sol.Alloc, sim.Options{})
	if err != nil {
		return nil, err
	}
	planner := retrieval.New(retrieval.Config{})
	data := prog.Tree().DataIDs()
	if err := measure("retrieval/exact/K=8", func() (float64, searchstats.Stats, error) {
		plan, err := planner.PlanExact(prog, 3, data[:8])
		if err != nil {
			return 0, searchstats.Stats{}, err
		}
		return float64(plan.Makespan()), searchstats.Stats{}, nil
	}); err != nil {
		return nil, err
	}
	if err := measure("retrieval/greedy/K=24", func() (float64, searchstats.Stats, error) {
		plan, err := planner.PlanGreedy(prog, 3, data)
		if err != nil {
			return 0, searchstats.Stats{}, err
		}
		return float64(plan.Makespan()), searchstats.Stats{}, nil
	}); err != nil {
		return nil, err
	}

	// The harness cases compare the Fig.14 sweep run serially and fanned
	// across workers; their identical Cost fields double as a determinism
	// check (the mean optimal wait over every (σ, trial) cell).
	fig14Case := func(workers int) func() (float64, searchstats.Stats, error) {
		return func() (float64, searchstats.Stats, error) {
			points, err := Fig14(Fig14Config{Trials: 4, Seed: cfg.Seed, Workers: workers})
			if err != nil {
				return 0, searchstats.Stats{}, err
			}
			var sum float64
			for _, p := range points {
				sum += p.Optimal
			}
			return sum / float64(len(points)), searchstats.Stats{}, nil
		}
	}
	if err := measure("harness/fig14/serial", fig14Case(1)); err != nil {
		return nil, err
	}
	if err := measure("harness/fig14/parallel", fig14Case(cfg.Workers)); err != nil {
		return nil, err
	}
	serial := report.Cases[len(report.Cases)-2]
	parallel := report.Cases[len(report.Cases)-1]
	if serial.Cost != parallel.Cost {
		return nil, fmt.Errorf("perf: parallel Fig14 diverged from serial (%v != %v)",
			parallel.Cost, serial.Cost)
	}
	return report, nil
}

// RenderPerf writes the perf report as a table.
func RenderPerf(w io.Writer, r *PerfReport) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "case\tns/run\tcost\texpanded\tgenerated\trule-pruned\tdom-pruned\tdom-stale\tpeak-queue\thash-collisions")
	for _, c := range r.Cases {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			c.Name, c.NanosPerRun, c.Cost,
			c.Stats.Expanded, c.Stats.Generated, c.Stats.RulePruned,
			c.Stats.DomPruned, c.Stats.DomStale, c.Stats.PeakQueue,
			c.Stats.HashCollisions)
	}
	return tw.Flush()
}

// WritePerfJSON writes the perf report as indented JSON.
func WritePerfJSON(w io.Writer, r *PerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
