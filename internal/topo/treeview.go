package topo

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/bestfirst"
	"repro/internal/tree"
)

// Node is one explicit node of a materialized (optionally pruned)
// topological tree — the structures drawn in the paper's Figs. 6, 7, 9
// and 10.
type Node struct {
	// Compound is the set of tree nodes broadcast at this slot.
	Compound []tree.ID
	// Cost is the weighted wait Σ W·T accumulated from the root through
	// this node (the V(X) of the evaluation function).
	Cost float64
	// Children are the next-neighbors that survive pruning.
	Children []*Node
	// Forced marks a Property 1 completion tail.
	Forced bool
}

// Leaves counts the root-to-leaf paths under n.
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

// Size counts the nodes in the subtree rooted at n.
func (n *Node) Size() int {
	total := 1
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// BuildTree materializes the topological tree for t under the given
// options, stopping with an error once more than maxNodes nodes exist
// (0 means no limit). The returned count is the total node count.
func BuildTree(t *tree.Tree, opt Options, maxNodes int) (*Node, int, error) {
	g, err := newGen(t, opt)
	if err != nil {
		return nil, 0, err
	}
	b := &treeBuilder{g: g, maxNodes: maxNodes, ids: make([]tree.ID, 0, g.n)}
	b.path = b.buf[:0]
	bestfirst.Walk[*state](g, g.root(), b.visit)
	if b.err != nil {
		return nil, b.count, b.err
	}
	return b.path[0], b.count, nil
}

// treeBuilder turns the states of a walk into Nodes.
type treeBuilder struct {
	g        *gen
	maxNodes int
	path     []*Node   // path[d] is the node of the walk's state at depth d
	buf      [8]*Node  // backs path while the walk is shallow
	ids      []tree.ID // backs every node's compound
	count    int
	err      error
}

func (b *treeBuilder) visit(s *state, depth int) bool {
	if s.forced() {
		// A forced completion renders as a chain of compounds.
		parent := b.path[depth-1]
		for i, level := range b.g.tail(s) {
			child := &Node{
				Compound: level,
				Cost:     parent.Cost + b.g.compoundCost(level, s.parent.depth+1+i),
				Forced:   true,
			}
			b.count++
			parent.Children = append(parent.Children, child)
			parent = child
		}
		return true
	}
	// The walk reuses s, so the compound is copied, into one growing
	// array: a regrowth leaves earlier nodes on the old one.
	b.ids = append(b.ids, s.compound...)
	n := &Node{Compound: b.ids[len(b.ids)-len(s.compound) : len(b.ids) : len(b.ids)], Cost: s.v}
	b.count++
	if depth > 0 {
		b.path[depth-1].Children = append(b.path[depth-1].Children, n)
	}
	b.path = append(b.path[:depth], n)
	if b.maxNodes > 0 && b.count > b.maxNodes {
		b.err = fmt.Errorf("topo: tree exceeds %d nodes", b.maxNodes)
		return false
	}
	return true
}

// label renders a compound like "{2,3}" with sorted labels.
func compoundLabel(t *tree.Tree, comp []tree.ID) string {
	ls := t.LabelOf(comp)
	sort.Strings(ls)
	return "{" + strings.Join(ls, ",") + "}"
}

// Render writes the topological tree as an indented outline, leaves
// annotated with their total weighted wait.
func Render(w io.Writer, t *tree.Tree, root *Node) error {
	var walk func(n *Node, depth int) error
	walk = func(n *Node, depth int) error {
		marker := ""
		if n.Forced {
			marker = " *"
		}
		suffix := ""
		if len(n.Children) == 0 {
			suffix = fmt.Sprintf("  (cost %g)", n.Cost)
		}
		if _, err := fmt.Fprintf(w, "%s%s%s%s\n",
			strings.Repeat("  ", depth), compoundLabel(t, n.Compound), marker, suffix); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, 0)
}
