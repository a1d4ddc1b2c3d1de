// Package experiment regenerates every table and figure of the paper's
// evaluation plus the ablation studies listed in DESIGN.md:
//
//	Table1        — pruning effects on full m-ary trees of depth 3 (E1)
//	Fig14         — Index Tree Sorting vs Optimal under N(100, σ) (E2)
//	Fig2          — the worked example's data waits and true optima (E3)
//	ChannelSweep  — optimal data wait as channels grow (A1)
//	PruningAblation — search effort with pruning on/off (A2)
//	HeuristicQuality — heuristic/optimal cost ratios (A3)
//	SimComparison — access/tuning/energy vs SV96 and flat broadcast (A4)
//
// Every experiment is deterministic given its Seed.
package experiment

import (
	"fmt"
	"math/big"

	"repro/internal/alloc"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datatree"
	"repro/internal/heuristic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/tree"
	"repro/internal/workload"
)

// Count is an enumeration result that may have been cut off at a limit.
type Count struct {
	N        uint64
	Exceeded bool // true: more than N paths exist (reported as "N/A")
}

// String renders the count the way the paper's Table 1 does.
func (c Count) String() string {
	if c.Exceeded {
		return "N/A"
	}
	return fmt.Sprintf("%d", c.N)
}

// Table1Row is one row of the paper's Table 1 for fanout M: path counts of
// the depth-3 full M-ary tree's data tree under increasing pruning, and
// the corresponding pruning percentages relative to (M²)! total orders.
type Table1Row struct {
	M int
	// ByP2 is the closed-form "By Property 2" count (M²)!/(M!)^M.
	ByP2 *big.Int
	// ByP2Enumerated cross-checks ByP2 by enumeration (when affordable).
	ByP2Enumerated Count
	// ByP12 is the "By Property 1, 2" count (median over trials).
	ByP12 Count
	// ByP124 is the "By Property 1, 2, 4" count (median over trials).
	ByP124 Count
	// ByP124M extends Property 4 with Corollary 2's m-and-1 block
	// exchanges (block size 3) — the paper's suggested strengthening.
	ByP124M Count
	// PctP2, PctP12, PctP124 are pruning percentages 1 − count/(M²)!.
	PctP2, PctP12, PctP124 float64
}

// Table1Config parameterizes the Table 1 run.
type Table1Config struct {
	// Ms lists the fanouts; the paper uses 2..6.
	Ms []int
	// Trials repeats the random-weight-dependent columns; the median is
	// reported (the paper shows a single draw). Defaults to 3.
	Trials int
	// Seed drives weight generation.
	Seed int64
	// EnumLimit caps each enumeration (defaults to 2 000 000 paths);
	// exceeding it reports N/A, as the paper does for m >= 5.
	EnumLimit uint64
	// Workers fans the (fanout, trial) cells across goroutines (<= 0:
	// GOMAXPROCS). Output is identical to a serial run.
	Workers int
}

// table1Trial is the per-(fanout, trial) work of Table1.
type table1Trial struct {
	byP2             *big.Int
	byP2Enum         Count
	p12, p124, p124m Count
}

// Table1 regenerates the paper's Table 1.
func Table1(cfg Table1Config) ([]Table1Row, error) {
	if len(cfg.Ms) == 0 {
		cfg.Ms = []int{2, 3, 4, 5, 6}
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 3
	}
	if cfg.EnumLimit == 0 {
		cfg.EnumLimit = 2_000_000
	}
	nt := cfg.Trials
	trials, err := forEachTrial(cfg.Workers, len(cfg.Ms)*nt, func(i int) (table1Trial, error) {
		m, trial := cfg.Ms[i/nt], i%nt
		var out table1Trial
		rng := stats.NewRNG(cfg.Seed + int64(trial)*7919)
		tr, err := workload.FullMAry(m, 3, stats.Uniform{Lo: 1, Hi: 1000}, rng)
		if err != nil {
			return out, err
		}
		if trial == 0 {
			out.byP2 = datatree.BasePathCount(tr)
			if out.byP2.IsUint64() && out.byP2.Uint64() <= cfg.EnumLimit {
				n, ex, err := datatree.CountPaths(tr, datatree.Options{}, cfg.EnumLimit)
				if err != nil {
					return out, err
				}
				out.byP2Enum = Count{N: n, Exceeded: ex}
			} else {
				out.byP2Enum = Count{Exceeded: true}
			}
		}
		n12, ex12, err := datatree.CountPaths(tr, datatree.Options{Property1: true}, cfg.EnumLimit)
		if err != nil {
			return out, err
		}
		out.p12 = Count{N: n12, Exceeded: ex12}
		n124, ex124, err := datatree.CountPaths(tr,
			datatree.Options{Property1: true, Property4: true}, cfg.EnumLimit)
		if err != nil {
			return out, err
		}
		out.p124 = Count{N: n124, Exceeded: ex124}
		n124m, ex124m, err := datatree.CountPaths(tr,
			datatree.Options{Property1: true, Property4: true, MNExchange: 3}, cfg.EnumLimit)
		if err != nil {
			return out, err
		}
		out.p124m = Count{N: n124m, Exceeded: ex124m}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(cfg.Ms))
	for mi, m := range cfg.Ms {
		row := Table1Row{M: m}
		p12s := make([]Count, nt)
		p124s := make([]Count, nt)
		p124ms := make([]Count, nt)
		for trial := 0; trial < nt; trial++ {
			res := trials[mi*nt+trial]
			if trial == 0 {
				row.ByP2 = res.byP2
				row.ByP2Enumerated = res.byP2Enum
			}
			p12s[trial] = res.p12
			p124s[trial] = res.p124
			p124ms[trial] = res.p124m
		}
		row.ByP12 = medianCount(p12s)
		row.ByP124 = medianCount(p124s)
		row.ByP124M = medianCount(p124ms)
		total := factorialBig(m * m)
		row.PctP2 = pruningPct(row.ByP2, total)
		if !row.ByP12.Exceeded {
			row.PctP12 = pruningPct(new(big.Int).SetUint64(row.ByP12.N), total)
		}
		if !row.ByP124.Exceeded {
			row.PctP124 = pruningPct(new(big.Int).SetUint64(row.ByP124.N), total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func factorialBig(n int) *big.Int { return new(big.Int).MulRange(1, int64(n)) }

// pruningPct computes 100·(1 − count/total) with big-rational precision.
func pruningPct(count, total *big.Int) float64 {
	r := new(big.Rat).SetFrac(count, total)
	f, _ := r.Float64()
	return 100 * (1 - f)
}

func medianCount(cs []Count) Count {
	// Exceeded counts sort above everything.
	sorted := append([]Count(nil), cs...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			less := func(a, b Count) bool {
				if a.Exceeded != b.Exceeded {
					return !a.Exceeded
				}
				return a.N < b.N
			}
			if less(sorted[j], sorted[i]) {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	return sorted[len(sorted)/2]
}

// Fig14Point is one x-position of the paper's Fig. 14: mean data waits of
// the optimal allocation and the Index Tree Sorting heuristic for data
// frequencies drawn from N(Mu, Sigma).
type Fig14Point struct {
	Sigma            float64
	Optimal, Sorting float64
	// Gap is Sorting − Optimal in buckets.
	Gap float64
}

// Fig14Config parameterizes the Fig. 14 run; zero values reproduce the
// paper: full 4-ary depth-3 tree, µ = 100, σ ∈ {10, 20, 30, 40}.
type Fig14Config struct {
	M      int
	Mu     float64
	Sigmas []float64
	Trials int
	Seed   int64
	// Workers fans the (sigma, trial) cells across goroutines (<= 0:
	// GOMAXPROCS). Output is identical to a serial run.
	Workers int
}

// Fig14 regenerates the paper's Fig. 14 on a single broadcast channel.
func Fig14(cfg Fig14Config) ([]Fig14Point, error) {
	if cfg.M == 0 {
		cfg.M = 4
	}
	if cfg.Mu == 0 {
		cfg.Mu = 100
	}
	if len(cfg.Sigmas) == 0 {
		cfg.Sigmas = []float64{10, 20, 30, 40}
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 20
	}
	nt := cfg.Trials
	type cell struct{ opt, srt float64 }
	cells, err := forEachTrial(cfg.Workers, len(cfg.Sigmas)*nt, func(i int) (cell, error) {
		si, trial := i/nt, i%nt
		sigma := cfg.Sigmas[si]
		rng := stats.NewRNG(cfg.Seed + int64(si)*104729 + int64(trial)*7919)
		tr, err := workload.FullMAry(cfg.M, 3, stats.Normal{Mu: cfg.Mu, Sigma: sigma}, rng)
		if err != nil {
			return cell{}, err
		}
		opt, err := datatree.Search(tr, datatree.AllOptions())
		if err != nil {
			return cell{}, err
		}
		srt, err := heuristic.SortingBroadcast(tr)
		if err != nil {
			return cell{}, err
		}
		if srt.DataWait() < opt.Cost-1e-9 {
			return cell{}, fmt.Errorf("experiment: sorting beat optimal (σ=%g trial %d)", sigma, trial)
		}
		return cell{opt: opt.Cost, srt: srt.DataWait()}, nil
	})
	if err != nil {
		return nil, err
	}
	points := make([]Fig14Point, 0, len(cfg.Sigmas))
	for si, sigma := range cfg.Sigmas {
		var optSum, sortSum float64
		for trial := 0; trial < nt; trial++ {
			c := cells[si*nt+trial]
			optSum += c.opt
			sortSum += c.srt
		}
		n := float64(nt)
		points = append(points, Fig14Point{
			Sigma:   sigma,
			Optimal: optSum / n,
			Sorting: sortSum / n,
			Gap:     (sortSum - optSum) / n,
		})
	}
	return points, nil
}

// Fig2Result pins the worked example of Fig. 2: the paper's two
// illustrative allocations and the true optima for 1 and 2 channels.
type Fig2Result struct {
	OneChannelPaper float64 // 421/70 ≈ 6.01
	TwoChannelPaper float64 // 272/70 ≈ 3.88
	OneChannelOpt   float64 // 391/70 ≈ 5.59
	TwoChannelOpt   float64 // 264/70 ≈ 3.77
	OneChannelAlloc *alloc.Allocation
	TwoChannelAlloc *alloc.Allocation
	OptOneChannel   *alloc.Allocation
	OptTwoChannel   *alloc.Allocation
}

// Fig2 reproduces the Section 2.2 worked example.
func Fig2() (*Fig2Result, error) {
	tr := tree.Fig1()
	find := func(labels ...string) []tree.ID {
		out := make([]tree.ID, len(labels))
		for i, l := range labels {
			out[i] = tr.FindLabel(l)
		}
		return out
	}
	one, err := alloc.FromSequence(tr, find("1", "3", "E", "4", "C", "D", "2", "A", "B"))
	if err != nil {
		return nil, err
	}
	two, err := alloc.FromLevels(tr, 2, [][]tree.ID{
		find("1"), find("2", "3"), find("A", "B"), find("4", "E"), find("C", "D"),
	})
	if err != nil {
		return nil, err
	}
	opt1, err := topo.Exact(tr, 1)
	if err != nil {
		return nil, err
	}
	opt2, err := topo.Exact(tr, 2)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{
		OneChannelPaper: one.DataWait(),
		TwoChannelPaper: two.DataWait(),
		OneChannelOpt:   opt1.Cost,
		TwoChannelOpt:   opt2.Cost,
		OneChannelAlloc: one,
		TwoChannelAlloc: two,
		OptOneChannel:   opt1.Alloc,
		OptTwoChannel:   opt2.Alloc,
	}, nil
}

// ChannelSweepPoint is one channel count's result (ablation A1).
type ChannelSweepPoint struct {
	K          int
	Optimal    float64
	Sorting    float64
	Corollary1 bool // true once k >= max level width
}

// ChannelSweepConfig parameterizes A1. Zero values use the full 3-ary
// depth-3 tree (9 data nodes) and k = 1..6.
type ChannelSweepConfig struct {
	M, Depth int
	Ks       []int
	Seed     int64
}

// ChannelSweep measures how the optimal and heuristic data waits fall as
// the number of channels grows, the flexibility argument of Section 1.1.
func ChannelSweep(cfg ChannelSweepConfig) ([]ChannelSweepPoint, error) {
	if cfg.M == 0 {
		cfg.M = 3
	}
	if cfg.Depth == 0 {
		cfg.Depth = 3
	}
	rng := stats.NewRNG(cfg.Seed)
	tr, err := workload.FullMAry(cfg.M, cfg.Depth, stats.Uniform{Lo: 1, Hi: 100}, rng)
	if err != nil {
		return nil, err
	}
	width := tr.MaxLevelWidth()
	if len(cfg.Ks) == 0 {
		// Sweep from one channel up to the Corollary 1 regime.
		for k := 1; k <= 4; k++ {
			cfg.Ks = append(cfg.Ks, k)
		}
		if width > 4 {
			cfg.Ks = append(cfg.Ks, width)
		}
	}
	out := make([]ChannelSweepPoint, 0, len(cfg.Ks))
	for _, k := range cfg.Ks {
		var opt float64
		if res, ok, err := topo.Corollary1(tr, k); err != nil {
			return nil, err
		} else if ok {
			opt = res.Cost
		} else {
			res, err := topo.Search(tr, topo.Options{Channels: k, Prune: topo.AllPrunes(), TightBound: true})
			if err != nil {
				return nil, err
			}
			opt = res.Cost
		}
		srt, err := heuristic.AllocateSorted(tr, k)
		if err != nil {
			return nil, err
		}
		out = append(out, ChannelSweepPoint{
			K: k, Optimal: opt, Sorting: srt.DataWait(), Corollary1: k >= width,
		})
	}
	return out, nil
}

// PruningPoint is one ablation-A2 measurement: search effort with the
// paper's pruning on versus off, averaged over random trees.
type PruningPoint struct {
	K                  int
	NumData            int
	PrunedGenerated    float64
	UnprunedGenerated  float64
	GeneratedReduction float64 // percentage saved
}

// PruningAblationConfig parameterizes A2.
type PruningAblationConfig struct {
	Ks      []int
	NumData int
	Trials  int
	Seed    int64
	// Workers fans the (k, trial) cells across goroutines (<= 0:
	// GOMAXPROCS). Output is identical to a serial run.
	Workers int
}

// PruningAblation quantifies how much the Section 3.2 properties shrink
// the best-first search, the point of the paper's pruning machinery.
func PruningAblation(cfg PruningAblationConfig) ([]PruningPoint, error) {
	if len(cfg.Ks) == 0 {
		cfg.Ks = []int{1, 2}
	}
	if cfg.NumData == 0 {
		cfg.NumData = 7
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 10
	}
	nt := cfg.Trials
	type cell struct{ pg, ug float64 }
	cells, err := forEachTrial(cfg.Workers, len(cfg.Ks)*nt, func(i int) (cell, error) {
		k, trial := cfg.Ks[i/nt], i%nt
		rng := stats.NewRNG(cfg.Seed + int64(trial)*7919)
		tr, err := workload.Random(workload.RandomConfig{
			NumData: cfg.NumData,
			Dist:    stats.Uniform{Lo: 1, Hi: 100},
		}, rng)
		if err != nil {
			return cell{}, err
		}
		pruned, err := topo.Search(tr, topo.Options{Channels: k, Prune: topo.AllPrunes(), TightBound: true})
		if err != nil {
			return cell{}, err
		}
		unpruned, err := topo.Search(tr, topo.Options{Channels: k, Prune: topo.NoPrunes(), TightBound: true})
		if err != nil {
			return cell{}, err
		}
		if pruned.Cost-unpruned.Cost > 1e-9 || unpruned.Cost-pruned.Cost > 1e-9 {
			return cell{}, fmt.Errorf("experiment: pruning changed the optimum (k=%d trial %d)", k, trial)
		}
		return cell{pg: float64(pruned.Generated), ug: float64(unpruned.Generated)}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]PruningPoint, 0, len(cfg.Ks))
	for ki, k := range cfg.Ks {
		var pg, ug float64
		for trial := 0; trial < nt; trial++ {
			pg += cells[ki*nt+trial].pg
			ug += cells[ki*nt+trial].ug
		}
		n := float64(nt)
		out = append(out, PruningPoint{
			K:                  k,
			NumData:            cfg.NumData,
			PrunedGenerated:    pg / n,
			UnprunedGenerated:  ug / n,
			GeneratedReduction: 100 * (1 - pg/ug),
		})
	}
	return out, nil
}

// QualityPoint is one heuristic's aggregate cost ratio to optimal (A3).
type QualityPoint struct {
	Name  string
	Ratio stats.Summary // heuristic cost / optimal cost per trial
}

// HeuristicQualityConfig parameterizes A3.
type HeuristicQualityConfig struct {
	NumData int
	Trials  int
	Seed    int64
	// Workers fans the trials across goroutines (<= 0: GOMAXPROCS).
	// Output is identical to a serial run.
	Workers int
}

// HeuristicQuality measures Sorting, Shrinking, Partitioning and a random
// feasible allocation against the single-channel optimum. Any trial whose
// optimum or heuristic result falls below core.LowerBound fails the sweep.
func HeuristicQuality(cfg HeuristicQualityConfig) ([]QualityPoint, error) {
	if cfg.NumData == 0 {
		cfg.NumData = 9
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 25
	}
	names := []string{"sorting", "sorting+polish", "shrinking", "partitioning", "random"}
	cells, err := forEachTrial(cfg.Workers, cfg.Trials, func(trial int) (map[string]float64, error) {
		rng := stats.NewRNG(cfg.Seed + int64(trial)*7919)
		tr, err := workload.Random(workload.RandomConfig{
			NumData: cfg.NumData,
			Dist:    stats.Uniform{Lo: 1, Hi: 100},
		}, rng)
		if err != nil {
			return nil, err
		}
		opt, err := datatree.Search(tr, datatree.AllOptions())
		if err != nil {
			return nil, err
		}
		bound, err := core.LowerBound(tr, 1)
		if err != nil {
			return nil, err
		}
		if opt.Cost < bound-1e-9 {
			return nil, fmt.Errorf("experiment: optimum %v below the lower bound %v in trial %d", opt.Cost, bound, trial)
		}
		out := make(map[string]float64, len(names))
		record := func(name string, a *alloc.Allocation, err error) error {
			if err != nil {
				return err
			}
			if a.DataWait() < bound-1e-9 {
				return fmt.Errorf("experiment: %s beat the lower bound in trial %d", name, trial)
			}
			out[name] = a.DataWait() / opt.Cost
			return nil
		}
		sb, err := heuristic.SortingBroadcast(tr)
		if err := record("sorting", sb, err); err != nil {
			return nil, err
		}
		if sb != nil {
			sp, _, err := heuristic.Polish(sb)
			if err := record("sorting+polish", sp, err); err != nil {
				return nil, err
			}
		}
		sh, err := heuristic.SolveShrinking(tr, 5)
		if err := record("shrinking", sh, err); err != nil {
			return nil, err
		}
		pt, err := heuristic.SolvePartitioning(tr, 5)
		if err := record("partitioning", pt, err); err != nil {
			return nil, err
		}
		rd, err := baseline.RandomFeasible(tr, 1, rng)
		if err := record("random", rd, err); err != nil {
			return nil, err
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	ratios := map[string][]float64{}
	for _, cell := range cells {
		for _, name := range names {
			if v, ok := cell[name]; ok {
				ratios[name] = append(ratios[name], v)
			}
		}
	}
	out := make([]QualityPoint, 0, len(names))
	for _, name := range names {
		out = append(out, QualityPoint{Name: name, Ratio: stats.Summarize(ratios[name])})
	}
	return out, nil
}

// SimRow is one scheme's expected client metrics (A4).
type SimRow struct {
	Scheme   string
	Channels int
	Summary  sim.Summary
}

// SimComparisonConfig parameterizes A4. Zero values use the paper's
// Fig. 14 tree (full 4-ary, depth 3) and 2 mixed channels.
type SimComparisonConfig struct {
	M, Depth int
	Channels int
	Seed     int64
	Power    sim.Power
}

// SimComparison drives the full simulator: the optimal/heuristic mixed
// allocation of this paper against the SV96 level-per-channel scheme and
// an unindexed flat broadcast.
func SimComparison(cfg SimComparisonConfig) ([]SimRow, error) {
	if cfg.M == 0 {
		cfg.M = 4
	}
	if cfg.Depth == 0 {
		cfg.Depth = 3
	}
	if cfg.Channels == 0 {
		cfg.Channels = 2
	}
	if cfg.Power == (sim.Power{}) {
		cfg.Power = sim.Power{Active: 1, Doze: 0.05}
	}
	rng := stats.NewRNG(cfg.Seed)
	tr, err := workload.FullMAry(cfg.M, cfg.Depth, stats.Normal{Mu: 100, Sigma: 20}, rng)
	if err != nil {
		return nil, err
	}
	var rows []SimRow

	ours, err := heuristic.AllocateSorted(tr, cfg.Channels)
	if err != nil {
		return nil, err
	}
	for _, withCopies := range []bool{false, true} {
		p, err := sim.Compile(ours, sim.Options{FillWithRootCopies: withCopies})
		if err != nil {
			return nil, err
		}
		s, err := sim.Evaluate(p, cfg.Power)
		if err != nil {
			return nil, err
		}
		name := "mixed (this paper)"
		if withCopies {
			name = "mixed + root copies"
		}
		rows = append(rows, SimRow{Scheme: name, Channels: cfg.Channels, Summary: s})
	}

	sv, svChannels, err := baseline.SV96(tr, cfg.Power)
	if err != nil {
		return nil, err
	}
	rows = append(rows, SimRow{Scheme: "SV96 level-per-channel", Channels: svChannels, Summary: sv})

	m := baseline.OptimalM(tr)
	onem, err := baseline.OneM(tr, m, cfg.Power)
	if err != nil {
		return nil, err
	}
	rows = append(rows, SimRow{
		Scheme: fmt.Sprintf("(1,m) indexing, m*=%d [IVB94]", m), Channels: 1, Summary: onem,
	})

	flat, err := baseline.Flat(tr, cfg.Power)
	if err != nil {
		return nil, err
	}
	rows = append(rows, SimRow{Scheme: "flat (no index)", Channels: 1, Summary: flat})
	return rows, nil
}
