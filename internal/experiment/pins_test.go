package experiment

import (
	"fmt"
	"testing"

	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/datatree"
	"repro/internal/retrieval"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// TestResultPins pins the exact results of the search engines, the
// Hu–Tucker builder, the batch retrieval planner and the Fig. 14 harness
// on fixed seed-1 inputs, so a performance change cannot silently change
// what they compute. The inputs come from one RNG in a fixed order: a
// random 9-data tree, then 1,000 Zipf(0.8) catalog weights, then a
// 24-item catalog. Timing of the same stages lives in the package
// benchmarks (go test -bench).
func TestResultPins(t *testing.T) {
	rng := stats.NewRNG(1)
	topoTree, err := workload.Random(workload.RandomConfig{
		NumData: 9,
		Dist:    stats.Uniform{Lo: 1, Hi: 100},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for name, prune := range map[string]topo.Prune{
		"pruned":   topo.AllPrunes(),
		"unpruned": topo.NoPrunes(),
		"exact":    {Property1: true, DataRank: true},
	} {
		res, err := topo.Search(topoTree, topo.Options{Channels: 2, Prune: prune, TightBound: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != 4.935499866239771 {
			t.Errorf("topo %s k=2: cost %v, want 4.935499866239771", name, res.Cost)
		}
	}

	dataTree, err := workload.FullMAry(4, 3, stats.Normal{Mu: 100, Sigma: 20}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	dres, err := datatree.Search(dataTree, datatree.AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	if dres.Cost != 11.624188727906494 {
		t.Errorf("datatree FullMAry(4,3): cost %v, want 11.624188727906494", dres.Cost)
	}

	zipf := stats.Zipf{Theta: 0.8}
	zipfItems := make([]alphatree.Item, 1000)
	for i := range zipfItems {
		zipfItems[i] = alphatree.Item{Label: fmt.Sprintf("k%d", i+1), Key: int64(i + 1), Weight: zipf.Sample(rng)}
	}
	ht, err := alphatree.HuTucker(zipfItems)
	if err != nil {
		t.Fatal(err)
	}
	if wpl := alphatree.WeightedPathLength(ht); wpl != 13416.09852431421 {
		t.Errorf("Hu–Tucker n=1000: WPL %v, want 13416.09852431421", wpl)
	}

	items := make([]alphatree.Item, 24)
	for i := range items {
		items[i] = alphatree.Item{Label: fmt.Sprintf("i%02d", i), Key: int64(i + 1), Weight: float64(1 + rng.Intn(100))}
	}
	catalog, err := alphatree.HuTucker(items)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(catalog, core.Config{Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sim.Compile(sol.Alloc, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	planner := retrieval.New(retrieval.Config{})
	data := prog.Tree().DataIDs()
	exact, err := planner.PlanExact(prog, 3, data[:8])
	if err != nil {
		t.Fatal(err)
	}
	if exact.Makespan() != 31 {
		t.Errorf("PlanExact K=8: makespan %d, want 31", exact.Makespan())
	}
	greedy, err := planner.PlanGreedy(prog, 3, data)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Makespan() != 298 {
		t.Errorf("PlanGreedy K=24: makespan %d, want 298", greedy.Makespan())
	}

	points, err := Fig14(Fig14Config{Trials: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range points {
		sum += p.Optimal
	}
	if mean := sum / float64(len(points)); mean != 11.092280419865917 {
		t.Errorf("Fig14 Trials=4: mean optimum %v, want 11.092280419865917", mean)
	}
}
