package datatree

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bestfirst"
	"repro/internal/bitset"
	"repro/internal/tree"
)

// Node is one explicit node of a materialized (optionally pruned) data
// tree — the structure of the paper's Figs. 11 and 12, annotated with the
// Nancestor/Cancestor bookkeeping each node carries.
type Node struct {
	// Data is the data node placed at this step.
	Data tree.ID
	// Nancestor holds the ancestors emitted immediately before Data.
	Nancestor []tree.ID
	// Cancestor holds every ancestor broadcast so far (inclusive).
	Cancestor []tree.ID
	// Cost is Σ W·T through this node.
	Cost float64
	// Children are the surviving next data nodes.
	Children []*Node
}

// Leaves counts root-to-leaf paths under n (n == nil counts the whole
// forest below the virtual root).
func (n *Node) Leaves() int {
	if len(n.Children) == 0 {
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += c.Leaves()
	}
	return total
}

// BuildTree materializes the (pruned) data tree of t. The virtual root
// (no data node yet) is returned as a Node with Data == tree.None whose
// children are the first-position candidates. Building stops with an
// error once more than maxNodes nodes exist (0 = no limit).
func BuildTree(t *tree.Tree, opt Options, maxNodes int) (*Node, int, error) {
	if t.NumData() == 0 {
		return nil, 0, fmt.Errorf("datatree: tree has no data nodes")
	}
	c := newCtx(t, opt)
	var path []*Node // path[d] is the node of the walk's state at depth d
	var err error
	count := 0
	bestfirst.Walk[*state](c, c.New(), func(s *state, depth int) bool {
		n := &Node{Data: s.d, Cost: s.v}
		if depth > 0 {
			n.Nancestor = append([]tree.ID(nil), s.nanc...)
			n.Cancestor = coveredIndexIDs(t, s.covered)
			path[depth-1].Children = append(path[depth-1].Children, n)
		}
		path = append(path[:depth], n)
		count++
		if maxNodes > 0 && count > maxNodes {
			err = fmt.Errorf("datatree: tree exceeds %d nodes", maxNodes)
			return false
		}
		return true
	})
	if err != nil {
		return nil, count, err
	}
	return path[0], count, nil
}

// Render writes the data tree in the paper's Fig. 12 style: each node as
// "{Nancestor},{Cancestor} label", leaves annotated with their cost.
func Render(w io.Writer, t *tree.Tree, root *Node) error {
	var walk func(n *Node, depth int) error
	walk = func(n *Node, depth int) error {
		if n.Data != tree.None {
			suffix := ""
			if len(n.Children) == 0 {
				suffix = fmt.Sprintf("  (cost %g)", n.Cost)
			}
			if _, err := fmt.Fprintf(w, "%s{%s},{%s} %s%s\n",
				strings.Repeat("  ", depth),
				labelList(t, n.Nancestor), labelList(t, n.Cancestor),
				t.Label(n.Data), suffix); err != nil {
				return err
			}
		}
		for _, c := range n.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, -1)
}

func labelList(t *tree.Tree, ids []tree.ID) string {
	return strings.Join(t.LabelOf(ids), ",")
}

// coveredIndexIDs lists the covered index nodes in preorder, matching the
// paper's Cancestor sets.
func coveredIndexIDs(t *tree.Tree, covered bitset.Set) []tree.ID {
	var out []tree.ID
	for _, id := range t.Preorder() {
		if t.IsIndex(id) && covered.Contains(int(id)) {
			out = append(out, id)
		}
	}
	return out
}
