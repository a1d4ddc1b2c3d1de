package datatree

import (
	"strings"
	"testing"

	"repro/internal/tree"
)

// TestBuildTreeBaseMatchesCount: the materialized base data tree has the
// same number of paths as the enumeration.
func TestBuildTreeBaseMatchesCount(t *testing.T) {
	tr := tree.Fig1()
	root, count, err := BuildTree(tr, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Leaves(); got != 30 {
		t.Fatalf("base leaves = %d, want 30", got)
	}
	if count < 30 {
		t.Fatalf("node count = %d", count)
	}
}

// TestBuildTreeFig12Annotations reproduces the paper's Fig. 12 node
// annotations on the A branch: A carries ({1,2},{1,2}), its child B
// carries ({},{1,2}), its child C carries ({3,4},{1,2,3,4}).
func TestBuildTreeFig12Annotations(t *testing.T) {
	tr := tree.Fig1()
	root, _, err := BuildTree(tr, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var findChild func(n *Node, label string) *Node
	findChild = func(n *Node, label string) *Node {
		for _, c := range n.Children {
			if tr.Label(c.Data) == label {
				return c
			}
		}
		return nil
	}
	a := findChild(root, "A")
	if a == nil {
		t.Fatalf("root has no child A")
	}
	if got := labelList(tr, a.Nancestor); got != "1,2" {
		t.Fatalf("Nancestor(A) = {%s}, want {1,2}", got)
	}
	if got := labelList(tr, a.Cancestor); got != "1,2" {
		t.Fatalf("Cancestor(A) = {%s}, want {1,2}", got)
	}
	b := findChild(a, "B")
	if b == nil {
		t.Fatalf("A has no child B; children: %v", a.Children)
	}
	if got := labelList(tr, b.Nancestor); got != "" {
		t.Fatalf("Nancestor(B) = {%s}, want {}", got)
	}
	c := findChild(b, "C")
	if c == nil {
		t.Fatal("B has no child C")
	}
	if got := labelList(tr, c.Nancestor); got != "3,4" {
		t.Fatalf("Nancestor(C) = {%s}, want {3,4}", got)
	}
	if got := labelList(tr, c.Cancestor); got != "1,2,3,4" {
		t.Fatalf("Cancestor(C) = {%s}, want {1,2,3,4}", got)
	}
}

// TestBuildTreePrunedSingleOptimum: the fully pruned tree contains
// exactly one complete path — the optimum A,B,E,C,D. The remaining
// leaves are dead-end prefixes whose every continuation Property 4
// eliminated (the "marked" nodes of the paper's Fig. 11).
func TestBuildTreePrunedSingleOptimum(t *testing.T) {
	tr := tree.Fig1()
	root, _, err := BuildTree(tr, AllOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var complete []string
	deadEnds := 0
	var walk func(n *Node, path []string)
	walk = func(n *Node, path []string) {
		if n.Data != tree.None {
			path = append(path, tr.Label(n.Data))
		}
		if len(n.Children) == 0 {
			if len(path) == tr.NumData() {
				complete = append(complete, strings.Join(path, ""))
			} else {
				deadEnds++
			}
			return
		}
		for _, c := range n.Children {
			walk(c, path)
		}
	}
	walk(root, nil)
	if len(complete) != 1 || complete[0] != "ABECD" {
		t.Fatalf("complete paths = %v, want [ABECD]", complete)
	}
	if deadEnds == 0 {
		t.Fatal("expected Property 4 dead-end prefixes in the tree")
	}
}

func TestBuildTreeNodeLimit(t *testing.T) {
	tr := tree.Fig1()
	if _, _, err := BuildTree(tr, Options{}, 3); err == nil {
		t.Fatal("want node-limit error")
	}
}

func TestRenderDataTree(t *testing.T) {
	tr := tree.Fig1()
	root, _, err := BuildTree(tr, AllOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Render(&sb, tr, root); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"{1,2},{1,2} A", "{},{1,2} B", "cost 391"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}
