package datatree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alphatree"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

// engineCorpus returns n small seeded trees cycling through the shapes the
// searches see: the paper's Fig. 1, full m-ary trees, workload.Random
// shapes and Hu–Tucker trees over random catalogs.
func engineCorpus(t *testing.T, n int) []*tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(20261018))
	dist := stats.Uniform{Lo: 1, Hi: 100}
	out := []*tree.Tree{tree.Fig1()}
	for len(out) < n {
		var tr *tree.Tree
		var err error
		switch len(out) % 4 {
		case 0:
			shapes := [][2]int{{2, 2}, {2, 3}, {3, 2}, {3, 3}, {4, 2}}
			s := shapes[rng.Intn(len(shapes))]
			tr, err = workload.FullMAry(s[0], s[1], dist, stats.NewRNG(rng.Int63()))
		case 1, 2:
			tr, err = workload.Random(workload.RandomConfig{NumData: 2 + rng.Intn(7), Dist: dist},
				stats.NewRNG(rng.Int63()))
		case 3:
			var items []alphatree.Item
			for _, it := range workload.Catalog(2+rng.Intn(7), dist, stats.NewRNG(rng.Int63())) {
				items = append(items, alphatree.Item{Label: it.Label, Key: it.Key, Weight: it.Weight})
			}
			tr, err = alphatree.HuTucker(items)
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// allOptions lists every Options combination the data-tree search takes:
// Property 1 and Property 4 on and off, and no, 2- and 3-block exchanges.
func allOptions() []Options {
	var out []Options
	for _, p1 := range []bool{false, true} {
		for _, p4 := range []bool{false, true} {
			for _, mn := range []int{0, 2, 3} {
				out = append(out, Options{Property1: p1, Property4: p4, MNExchange: mn})
			}
		}
	}
	return out
}

// searchSignature renders everything a search returns that must not move:
// the data order, the broadcast, the cost's exact bits and all seven
// counters.
func searchSignature(res *Result, err error) string {
	if err != nil {
		return "error: " + fmt.Sprint(errors.Is(err, ErrExpansionLimit))
	}
	return fmt.Sprintf("%v %v cost %x expanded %d generated %d %+v",
		res.Order, res.Sequence, math.Float64bits(res.Cost), res.Expanded, res.Generated, res.Stats)
}

// TestEngineMatchesOracle holds the engine-driven Search to the
// pre-engine loop kept in oracle_test.go on every corpus tree under every
// Options combination: order, broadcast, cost bits and every counter are
// equal, and at MaxExpanded = need and need − 1 both succeed or fail
// alike.
func TestEngineMatchesOracle(t *testing.T) {
	for i, tr := range engineCorpus(t, 1000) {
		for oi, opt := range allOptions() {
			res, err := Search(tr, opt)
			got := searchSignature(res, err)
			if want := searchSignature(oracleSearch(tr, opt)); got != want {
				t.Fatalf("tree %d %+v:\n got %s\nwant %s", i, opt, got, want)
			}
			if err != nil || (i+oi)%3 != 0 {
				continue
			}
			for _, limit := range []int{res.Stats.Expanded, res.Stats.Expanded - 1} {
				if limit == 0 {
					continue // 0 means no limit
				}
				opt.MaxExpanded = limit
				got := searchSignature(Search(tr, opt))
				if want := searchSignature(oracleSearch(tr, opt)); got != want {
					t.Fatalf("tree %d %+v:\n got %s\nwant %s", i, opt, got, want)
				}
			}
		}
	}
}

// TestWalkMatchesOracle holds EnumeratePaths and BuildTree, which drive
// the search's successor step depth-first, to the recursive walkers kept
// in oracle_test.go: the same orders in the same sequence with the same
// cost bits, and the same rendered tree, costs, node count and node-limit
// failure.
func TestWalkMatchesOracle(t *testing.T) {
	for i, tr := range engineCorpus(t, 300) {
		if tr.NumData() > 7 {
			continue
		}
		for _, opt := range allOptions() {
			got, want := pathLog(t, tr, opt, EnumeratePaths), pathLog(t, tr, opt, oracleEnumeratePaths)
			if got != want {
				t.Fatalf("tree %d %+v: paths\n got %s\nwant %s", i, opt, got, want)
			}
			for _, limit := range []int{0, 7} {
				got, want := treeLog(tr, opt, limit, BuildTree), treeLog(tr, opt, limit, oracleBuildTree)
				if got != want {
					t.Fatalf("tree %d %+v maxNodes=%d: tree\n got %s\nwant %s", i, opt, limit, got, want)
				}
			}
		}
	}
}

func pathLog(t *testing.T, tr *tree.Tree, opt Options,
	enum func(*tree.Tree, Options, func([]tree.ID, float64) bool) (uint64, error)) string {
	var b strings.Builder
	n, err := enum(tr, opt, func(order []tree.ID, cost float64) bool {
		fmt.Fprintf(&b, "%v %x\n", order, math.Float64bits(cost))
		return b.Len() < 1<<16
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d paths\n%s", n, b.String())
}

func treeLog(tr *tree.Tree, opt Options, maxNodes int,
	build func(*tree.Tree, Options, int) (*Node, int, error)) string {
	root, count, err := build(tr, opt, maxNodes)
	if err != nil {
		return fmt.Sprintf("%d nodes: %v", count, err)
	}
	var b strings.Builder
	if err := Render(&b, tr, root); err != nil {
		return err.Error()
	}
	var costs func(n *Node)
	costs = func(n *Node) {
		fmt.Fprintf(&b, "%x ", math.Float64bits(n.Cost))
		for _, c := range n.Children {
			costs(c)
		}
	}
	costs(root)
	return fmt.Sprintf("%d nodes\n%s", count, b.String())
}
