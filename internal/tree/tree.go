// Package tree implements the index tree of Lo & Chen (ICDE 2000): a rooted
// tree whose internal nodes are index nodes and whose leaves are data nodes,
// each data node carrying an access frequency (its weight). Trees are
// immutable once built; construct them with a Builder.
//
// Index nodes additionally carry a unique weight given by their preorder
// rank (Section 3.2 of the paper), used only to make the index–index local
// swap rule unidirectional.
package tree

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/bitset"
)

// ID identifies a node within a Tree. IDs are dense: a tree with n nodes
// uses IDs 0..n-1, assigned in insertion order by the Builder.
type ID int32

// None is the absent node, e.g. the parent of the root.
const None ID = -1

// Kind distinguishes index nodes (internal) from data nodes (leaves).
type Kind uint8

const (
	// Index marks an internal routing node.
	Index Kind = iota + 1
	// Data marks a leaf carrying a broadcast data item.
	Data
)

// String returns "index" or "data".
func (k Kind) String() string {
	switch k {
	case Index:
		return "index"
	case Data:
		return "data"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

type node struct {
	kind     Kind
	label    string
	weight   float64 // data: access frequency; index: preorder rank
	key      int64   // data: search key (0 if unkeyed)
	hasKey   bool
	parent   ID
	children []ID
	level    int   // root = 1
	preorder int   // preorder visit position, 0-based over all nodes
	keyLo    int64 // min data key in subtree (if keyed)
	keyHi    int64 // max data key in subtree (if keyed)
}

// Tree is an immutable index tree.
type Tree struct {
	nodes       []node
	root        ID
	numData     int
	totalWeight float64
	depth       int
	keyed       bool
	preorderIDs []ID

	// The parents and the child lists again, packed for walks in non-ID
	// order: node i's children are kids[firstKid[i]:firstKid[i+1]], the
	// same array nodes[i].children slices.
	parents  []ID
	kids     []ID
	firstKid []int32
}

// NumNodes returns the total number of nodes.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumData returns the number of data (leaf) nodes.
func (t *Tree) NumData() int { return t.numData }

// NumIndex returns the number of index (internal) nodes.
func (t *Tree) NumIndex() int { return len(t.nodes) - t.numData }

// Root returns the root node's ID.
func (t *Tree) Root() ID { return t.root }

// Depth returns the number of levels; a single-node tree has depth 1.
func (t *Tree) Depth() int { return t.depth }

// Keyed reports whether every data node carries a search key.
func (t *Tree) Keyed() bool { return t.keyed }

// TotalWeight returns the sum of all data-node weights.
func (t *Tree) TotalWeight() float64 { return t.totalWeight }

// check panics unless id names a node. The unsigned compare also catches
// negative IDs; the panic lives in badID so check, and every accessor
// that calls it, stays small enough to inline.
func (t *Tree) check(id ID) {
	if uint(id) >= uint(len(t.nodes)) {
		t.badID(id)
	}
}

// badID is check's cold path, kept out of line.
//
//go:noinline
func (t *Tree) badID(id ID) {
	panic(fmt.Sprintf("tree: ID %d out of range [0,%d)", id, len(t.nodes)))
}

// Kind returns the node's kind.
func (t *Tree) Kind(id ID) Kind { t.check(id); return t.nodes[id].kind }

// IsData reports whether id is a data node.
func (t *Tree) IsData(id ID) bool { t.check(id); return t.nodes[id].kind == Data }

// IsIndex reports whether id is an index node.
func (t *Tree) IsIndex(id ID) bool { t.check(id); return t.nodes[id].kind == Index }

// Label returns the node's human-readable label.
func (t *Tree) Label(id ID) string { t.check(id); return t.nodes[id].label }

// Weight returns the node's weight: the access frequency for data nodes,
// the preorder rank for index nodes.
func (t *Tree) Weight(id ID) float64 { t.check(id); return t.nodes[id].weight }

// Key returns the data node's search key; ok is false if the node is
// unkeyed or an index node.
func (t *Tree) Key(id ID) (key int64, ok bool) {
	t.check(id)
	return t.nodes[id].key, t.nodes[id].hasKey
}

// KeyRange returns the [lo, hi] range of data keys under id. ok is false
// when the tree is not keyed.
func (t *Tree) KeyRange(id ID) (lo, hi int64, ok bool) {
	t.check(id)
	if !t.keyed {
		return 0, 0, false
	}
	return t.nodes[id].keyLo, t.nodes[id].keyHi, true
}

// Parent returns the node's parent, or None for the root.
func (t *Tree) Parent(id ID) ID { t.check(id); return t.parents[id] }

// Children returns the node's children in left-to-right order.
// The returned slice must not be modified.
func (t *Tree) Children(id ID) []ID {
	t.check(id)
	lo, hi := t.firstKid[id], t.firstKid[id+1]
	return t.kids[lo:hi:hi]
}

// Level returns the node's level; the root is level 1.
func (t *Tree) Level(id ID) int { t.check(id); return t.nodes[id].level }

// PreorderPos returns the node's 0-based position in a preorder traversal.
func (t *Tree) PreorderPos(id ID) int { t.check(id); return t.nodes[id].preorder }

// Preorder returns all node IDs in preorder.
// The returned slice must not be modified.
func (t *Tree) Preorder() []ID { return t.preorderIDs }

// DataIDs returns the IDs of all data nodes, in preorder.
func (t *Tree) DataIDs() []ID {
	out := make([]ID, 0, t.numData)
	for _, id := range t.preorderIDs {
		if t.IsData(id) {
			out = append(out, id)
		}
	}
	return out
}

// IndexIDs returns the IDs of all index nodes, in preorder.
func (t *Tree) IndexIDs() []ID {
	out := make([]ID, 0, t.NumIndex())
	for _, id := range t.preorderIDs {
		if t.IsIndex(id) {
			out = append(out, id)
		}
	}
	return out
}

// Ancestors returns the ancestors of id from the root down to its parent.
// The root has no ancestors.
func (t *Tree) Ancestors(id ID) []ID {
	t.check(id)
	var rev []ID
	for p := t.Parent(id); p != None; p = t.Parent(p) {
		rev = append(rev, p)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// AncestorSet returns the set of ancestor IDs of id.
func (t *Tree) AncestorSet(id ID) bitset.Set {
	s := bitset.New(len(t.nodes))
	for p := t.Parent(id); p != None; p = t.Parent(p) {
		s.Add(int(p))
	}
	return s
}

// IsAncestor reports whether a is a proper ancestor of b.
func (t *Tree) IsAncestor(a, b ID) bool {
	t.check(a)
	t.check(b)
	for p := t.Parent(b); p != None; p = t.Parent(p) {
		if p == a {
			return true
		}
	}
	return false
}

// SubtreeSize returns the number of nodes in the subtree rooted at id
// (including id itself).
func (t *Tree) SubtreeSize(id ID) int {
	n := 1
	for _, c := range t.Children(id) {
		n += t.SubtreeSize(c)
	}
	return n
}

// SubtreeWeight returns the sum of data weights in the subtree rooted at id.
func (t *Tree) SubtreeWeight(id ID) float64 {
	if t.IsData(id) {
		return t.Weight(id)
	}
	var w float64
	for _, c := range t.Children(id) {
		w += t.SubtreeWeight(c)
	}
	return w
}

// MaxLevelWidth returns the maximum number of nodes on any single level
// (used by Corollary 1).
func (t *Tree) MaxLevelWidth() int {
	counts := make([]int, t.depth+1)
	for i := range t.nodes {
		counts[t.nodes[i].level]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return max
}

// LevelNodes returns the node IDs at the given level (root = 1) ordered by
// preorder position, matching the level lists of the 1_To_k procedure.
func (t *Tree) LevelNodes(level int) []ID {
	var out []ID
	for _, id := range t.preorderIDs {
		if t.nodes[id].level == level {
			out = append(out, id)
		}
	}
	return out
}

// LabelOf is a convenience for printing sets of IDs.
func (t *Tree) LabelOf(ids []ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = t.Label(id)
	}
	return out
}

// FindLabel returns the ID of the node with the given label, or None.
// Labels are not required to be unique; the first match in preorder wins.
func (t *Tree) FindLabel(label string) ID {
	for _, id := range t.preorderIDs {
		if t.nodes[id].label == label {
			return id
		}
	}
	return None
}

// Validate re-checks the structural invariants. A Tree produced by a
// Builder always validates; this is exposed for tests and fuzzing.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("tree: empty")
	}
	if t.root < 0 || int(t.root) >= len(t.nodes) {
		return fmt.Errorf("tree: root %d out of range", t.root)
	}
	seen := bitset.New(len(t.nodes))
	var walk func(id ID, level int) error
	var walkErr error
	count := 0
	var walkf func(id ID, level int)
	walk = func(id ID, level int) error {
		walkf(id, level)
		return walkErr
	}
	walkf = func(id ID, level int) {
		if walkErr != nil {
			return
		}
		if seen.Contains(int(id)) {
			walkErr = fmt.Errorf("tree: node %d reachable twice", id)
			return
		}
		seen.Add(int(id))
		count++
		n := &t.nodes[id]
		if n.level != level {
			walkErr = fmt.Errorf("tree: node %d level %d, want %d", id, n.level, level)
			return
		}
		if n.kind == Data && len(n.children) > 0 {
			walkErr = fmt.Errorf("tree: data node %d has children", id)
			return
		}
		if n.kind == Index && len(n.children) == 0 {
			walkErr = fmt.Errorf("tree: index node %d has no children", id)
			return
		}
		for _, c := range n.children {
			if t.nodes[c].parent != id {
				walkErr = fmt.Errorf("tree: node %d has wrong parent link", c)
				return
			}
			walkf(c, level+1)
		}
	}
	if err := walk(t.root, 1); err != nil {
		return err
	}
	if count != len(t.nodes) {
		return fmt.Errorf("tree: %d of %d nodes reachable from root", count, len(t.nodes))
	}
	return nil
}

// Builder assembles a Tree. Add the root first with AddRoot, then children
// with AddIndex / AddData, then call Build.
type Builder struct {
	nodes []node
	root  ID
	built bool
	err   error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{root: None}
}

func (b *Builder) fail(format string, args ...interface{}) ID {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return None
}

// Grow reserves room for n more nodes, so a caller that knows the tree's
// size adds them without reallocating.
func (b *Builder) Grow(n int) { b.nodes = slices.Grow(b.nodes, n) }

func (b *Builder) add(n node) ID {
	id := ID(len(b.nodes))
	b.nodes = append(b.nodes, n)
	return id
}

// AddRoot creates the root index node and returns its ID.
func (b *Builder) AddRoot(label string) ID {
	if b.err != nil {
		return None
	}
	if b.root != None {
		return b.fail("tree: AddRoot called twice")
	}
	b.root = b.add(node{kind: Index, label: label, parent: None})
	return b.root
}

// AddRootData creates a single-node tree consisting of one data item.
func (b *Builder) AddRootData(label string, weight float64) ID {
	if b.err != nil {
		return None
	}
	if b.root != None {
		return b.fail("tree: AddRootData called twice")
	}
	if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return b.fail("tree: invalid weight %v for %q", weight, label)
	}
	b.root = b.add(node{kind: Data, label: label, weight: weight, parent: None})
	return b.root
}

func (b *Builder) checkParent(parent ID) bool {
	if b.err != nil {
		return false
	}
	if parent < 0 || int(parent) >= len(b.nodes) {
		b.fail("tree: parent %d does not exist", parent)
		return false
	}
	if b.nodes[parent].kind != Index {
		b.fail("tree: parent %d is a data node", parent)
		return false
	}
	return true
}

// AddIndex creates an index node under parent and returns its ID.
func (b *Builder) AddIndex(parent ID, label string) ID {
	if !b.checkParent(parent) {
		return None
	}
	return b.add(node{kind: Index, label: label, parent: parent})
}

// AddData creates a data node under parent and returns its ID.
func (b *Builder) AddData(parent ID, label string, weight float64) ID {
	if !b.checkParent(parent) {
		return None
	}
	if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return b.fail("tree: invalid weight %v for %q", weight, label)
	}
	return b.add(node{kind: Data, label: label, weight: weight, parent: parent})
}

// AddRootKeyedData creates a single-node tree of one keyed data item.
func (b *Builder) AddRootKeyedData(label string, key int64, weight float64) ID {
	id := b.AddRootData(label, weight)
	if id != None {
		b.nodes[id].key = key
		b.nodes[id].hasKey = true
	}
	return id
}

// AddKeyedData creates a data node with a search key under parent.
func (b *Builder) AddKeyedData(parent ID, label string, key int64, weight float64) ID {
	id := b.AddData(parent, label, weight)
	if id != None {
		b.nodes[id].key = key
		b.nodes[id].hasKey = true
	}
	return id
}

// Build finalizes the tree, computing levels, preorder ranks, totals and key
// ranges, and validating all structural invariants.
func (b *Builder) Build() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.built {
		return nil, fmt.Errorf("tree: Build called twice")
	}
	if b.root == None {
		return nil, fmt.Errorf("tree: no root")
	}
	b.built = true

	t := &Tree{nodes: b.nodes, root: b.root}
	keyed := true

	// Planners walk trees in orders far from ID order; packed arrays keep
	// those walks in cache. The child lists come from the parent links in
	// one counting pass: firstKid[p] first counts p's children, then holds
	// the end of p's block, and placing the children from the highest ID
	// down moves it back to the block's start, children in ID order.
	t.parents = make([]ID, len(t.nodes))
	t.firstKid = make([]int32, len(t.nodes)+1)
	for id := range t.nodes {
		p := t.nodes[id].parent
		t.parents[id] = p
		if p != None {
			t.firstKid[p]++
		}
	}
	var end int32
	for id := range t.firstKid {
		end += t.firstKid[id]
		t.firstKid[id] = end
	}
	t.kids = make([]ID, end)
	for id := len(t.nodes) - 1; id >= 0; id-- {
		if p := t.parents[id]; p != None {
			t.firstKid[p]--
			t.kids[t.firstKid[p]] = ID(id)
		}
	}
	for id := range t.nodes {
		lo, hi := t.firstKid[id], t.firstKid[id+1]
		t.nodes[id].children = t.kids[lo:hi:hi]
	}

	// Iterative preorder walk computing levels, ranks and aggregates.
	type frame struct {
		id    ID
		level int
	}
	stack := make([]frame, 1, 64)
	stack[0] = frame{t.root, 1}
	t.preorderIDs = make([]ID, 0, len(t.nodes))
	indexRank := 0
	pos := 0
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[f.id]
		n.level = f.level
		n.preorder = pos
		pos++
		t.preorderIDs = append(t.preorderIDs, f.id)
		if f.level > t.depth {
			t.depth = f.level
		}
		switch n.kind {
		case Data:
			t.numData++
			t.totalWeight += n.weight
			if !n.hasKey {
				keyed = false
			}
		case Index:
			indexRank++
			// The paper numbers index nodes from 1 in preorder; that
			// number is the index node's weight.
			n.weight = float64(indexRank)
			if len(n.children) == 0 {
				return nil, fmt.Errorf("tree: index node %q has no children", n.label)
			}
		}
		for i := len(n.children) - 1; i >= 0; i-- {
			stack = append(stack, frame{n.children[i], f.level + 1})
		}
	}
	t.keyed = keyed && t.numData > 0
	if t.keyed {
		if err := t.computeKeyRanges(t.root); err != nil {
			return nil, err
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Tree) computeKeyRanges(id ID) error {
	n := &t.nodes[id]
	if n.kind == Data {
		n.keyLo, n.keyHi = n.key, n.key
		return nil
	}
	n.keyLo, n.keyHi = math.MaxInt64, math.MinInt64
	for _, c := range n.children {
		if err := t.computeKeyRanges(c); err != nil {
			return err
		}
		if t.nodes[c].keyLo < n.keyLo {
			n.keyLo = t.nodes[c].keyLo
		}
		if t.nodes[c].keyHi > n.keyHi {
			n.keyHi = t.nodes[c].keyHi
		}
	}
	// A search tree requires children to cover disjoint, ascending ranges.
	for i := 1; i < len(n.children); i++ {
		if t.nodes[n.children[i-1]].keyHi >= t.nodes[n.children[i]].keyLo {
			return fmt.Errorf("tree: children of %q have overlapping or unordered key ranges", n.label)
		}
	}
	return nil
}

// SortedDataByWeight returns the data IDs sorted by descending weight,
// breaking ties by preorder position for determinism.
func (t *Tree) SortedDataByWeight() []ID {
	ids := t.DataIDs()
	sort.SliceStable(ids, func(i, j int) bool {
		wi, wj := t.Weight(ids[i]), t.Weight(ids[j])
		if wi != wj {
			return wi > wj
		}
		return t.PreorderPos(ids[i]) < t.PreorderPos(ids[j])
	})
	return ids
}
