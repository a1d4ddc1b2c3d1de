package datatree

import (
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/tree"
	"repro/internal/workload"
)

// pap is the paper's Section 2.2 reduction of one-channel index and data
// allocation to the Personnel Assignment Problem [Str89]: job j is tree
// node j, person p is slot p+1, the tree's parent edges order the jobs,
// and putting data node D on person p costs W(D)·(p+1). Index nodes cost
// nothing. A feasible assignment gives each person one job, a parent's
// person before its child's, so it is a topological order of the tree and
// its total cost is the numerator Σ W(D)·T(D) of Formula 1.
type pap struct {
	parent []tree.ID   // the job each job must follow, tree.None for the root
	cost   [][]float64 // cost[job][person]
}

func papFromTree(t *tree.Tree) *pap {
	n := t.NumNodes()
	in := &pap{parent: make([]tree.ID, n), cost: make([][]float64, n)}
	for j := range n {
		id := tree.ID(j)
		in.parent[j] = t.Parent(id)
		in.cost[j] = make([]float64, n)
		if t.IsData(id) {
			for p := range n {
				in.cost[j][p] = t.Weight(id) * float64(p+1)
			}
		}
	}
	return in
}

// solve enumerates every feasible assignment and returns how many there
// are, the least total cost, and an assignment attaining it (person p's
// job is order[p]). Exponential: for trees of a few nodes only.
func (in *pap) solve() (count uint64, best float64, order []tree.ID) {
	n := len(in.parent)
	placed := make([]bool, n)
	cur := make([]tree.ID, 0, n)
	best = math.Inf(1)
	var rec func(cost float64)
	rec = func(cost float64) {
		p := len(cur)
		if p == n {
			count++
			if cost < best {
				best, order = cost, append([]tree.ID(nil), cur...)
			}
			return
		}
		for j := range n {
			if placed[j] || (in.parent[j] != tree.None && !placed[in.parent[j]]) {
				continue
			}
			placed[j] = true
			cur = append(cur, tree.ID(j))
			rec(cost + in.cost[j][p])
			cur = cur[:p]
			placed[j] = false
		}
	}
	rec(0)
	return count, best, order
}

// papTree draws the seeded random trees the reduction is checked on: 2–5
// data leaves, so at most 9 nodes and 9! orders.
func papTree(t *testing.T, seed int64) *tree.Tree {
	t.Helper()
	rng := stats.NewRNG(seed)
	tr, err := workload.Random(workload.RandomConfig{
		NumData: 2 + rng.Intn(4),
		Dist:    stats.Uniform{Lo: 1, Hi: 50},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() > 9 {
		t.Fatalf("seed %d: %d nodes, want at most 9", seed, tr.NumNodes())
	}
	return tr
}

// TestPAPReductionFig1: the optimal assignment of the Fig. 1(a) instance
// is a feasible broadcast whose Formula-1 numerator is the PAP cost, and
// it is no worse than the paper's example broadcast (421).
func TestPAPReductionFig1(t *testing.T) {
	tr := tree.Fig1()
	_, cost, order := papFromTree(tr).solve()
	a, err := alloc.FromSequence(tr, order)
	if err != nil {
		t.Fatalf("PAP optimum %v is not a feasible broadcast: %v", tr.LabelOf(order), err)
	}
	if got := a.DataWait() * tr.TotalWeight(); math.Abs(got-cost) > 1e-9 {
		t.Fatalf("broadcast costs %g, PAP optimum %g", got, cost)
	}
	if cost > 421 {
		t.Fatalf("PAP optimum %g worse than the paper's example 421", cost)
	}
}

// TestPAPReductionMatchesSolvers: the reduction reaches the solvers'
// optimum. On Fig. 1 and 100 seeded random trees, the PAP optimum equals
// the data-tree search's and the one-channel exact topological search's
// cost times the total weight.
func TestPAPReductionMatchesSolvers(t *testing.T) {
	trees := []*tree.Tree{tree.Fig1()}
	for seed := int64(1); seed <= 100; seed++ {
		trees = append(trees, papTree(t, seed))
	}
	for i, tr := range trees {
		_, cost, _ := papFromTree(tr).solve()
		dt, err := Search(tr, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		ex, err := topo.Exact(tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		total := tr.TotalWeight()
		if math.Abs(dt.Cost*total-cost) > 1e-9 || math.Abs(ex.Cost*total-cost) > 1e-9 {
			t.Fatalf("tree %d %s: PAP optimum %g, data tree %g, topo.Exact %g",
				i, tr, cost, dt.Cost*total, ex.Cost*total)
		}
	}
}

// TestCrossCheckTopologicalOrderCounts: the PAP's feasible assignments
// and the unpruned one-channel topological tree's paths are the same
// object, the tree's topological orders, counted by two independent
// enumerators.
func TestCrossCheckTopologicalOrderCounts(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		tr := papTree(t, seed)
		orders, _, _ := papFromTree(tr).solve()
		paths, exceeded, err := topo.CountPaths(tr, topo.Options{Channels: 1}, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if exceeded || orders != paths {
			t.Fatalf("seed %d tree %s: PAP %d orders, topo %d paths (exceeded %v)",
				seed, tr, orders, paths, exceeded)
		}
	}
}
