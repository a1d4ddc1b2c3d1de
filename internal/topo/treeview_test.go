package topo

import (
	"math"
	"strings"
	"testing"

	"repro/internal/tree"
)

// TestBuildTreeFig6: the unpruned 1-channel topological tree of the
// example has 896 leaves (one per topological order).
func TestBuildTreeFig6(t *testing.T) {
	tr := tree.Fig1()
	root, count, err := BuildTree(tr, Options{Channels: 1, Prune: NoPrunes()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Leaves(); got != 896 {
		t.Fatalf("leaves = %d, want 896", got)
	}
	if root.Size() != count {
		t.Fatalf("Size %d != count %d", root.Size(), count)
	}
}

// TestBuildTreeFig10: the fully pruned 2-channel tree is exactly the
// paper's Fig. 10 — a root, one child {2,3}, and two paths below it.
func TestBuildTreeFig10(t *testing.T) {
	tr := tree.Fig1()
	root, _, err := BuildTree(tr, Options{Channels: 2, Prune: AllPrunes()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := compoundLabel(tr, root.Compound); got != "{1}" {
		t.Fatalf("root = %s", got)
	}
	if len(root.Children) != 1 {
		t.Fatalf("root children = %d", len(root.Children))
	}
	lvl2 := root.Children[0]
	if got := compoundLabel(tr, lvl2.Compound); got != "{2,3}" {
		t.Fatalf("level 2 = %s", got)
	}
	if len(lvl2.Children) != 2 {
		t.Fatalf("level 3 fan-out = %d, want 2 (Fig. 10)", len(lvl2.Children))
	}
	if got := root.Leaves(); got != 2 {
		t.Fatalf("paths = %d, want 2", got)
	}
	// Leaf costs are 277 and 264.
	var costs []float64
	var collect func(n *Node)
	collect = func(n *Node) {
		if len(n.Children) == 0 {
			costs = append(costs, n.Cost)
			return
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(root)
	if len(costs) != 2 {
		t.Fatalf("leaf costs = %v", costs)
	}
	lo, hi := math.Min(costs[0], costs[1]), math.Max(costs[0], costs[1])
	if lo != 264 || hi != 277 {
		t.Fatalf("leaf costs = %v, want {264, 277}", costs)
	}
}

func TestBuildTreeNodeLimit(t *testing.T) {
	tr := tree.Fig1()
	if _, _, err := BuildTree(tr, Options{Channels: 1, Prune: NoPrunes()}, 10); err == nil {
		t.Fatal("want node-limit error")
	}
}

func TestBuildTreeForcedCompletion(t *testing.T) {
	tr := tree.Fig1()
	root, _, err := BuildTree(tr, Options{Channels: 2, Prune: AllPrunes()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The completion tails below the last index compound are forced.
	forced := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Forced {
			forced++
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	if forced == 0 {
		t.Fatal("expected Property 1 forced nodes in the pruned tree")
	}
}

func TestRender(t *testing.T) {
	tr := tree.Fig1()
	root, _, err := BuildTree(tr, Options{Channels: 2, Prune: AllPrunes()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Render(&sb, tr, root); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"{1}", "{2,3}", "cost 264", "cost 277"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

func BenchmarkBuildTreePruned(b *testing.B) {
	tr := tree.Fig1()
	for i := 0; i < b.N; i++ {
		if _, _, err := BuildTree(tr, Options{Channels: 2, Prune: AllPrunes()}, 0); err != nil {
			b.Fatal(err)
		}
	}
}
