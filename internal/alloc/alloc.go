// Package alloc represents index-and-data allocations: the assignment of
// every tree node to a (channel, slot) pair within one broadcast cycle
// (the mapping f : I ∪ D → C × S of Section 2.2 of the paper), together
// with the feasibility conditions and the Formula-1 average data wait.
package alloc

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/tree"
)

// Position is one channel slot. Channels and slots are 1-based, matching
// the paper's notation: T(D) is the slot index of data node D.
type Position struct {
	Channel int `json:"channel"`
	Slot    int `json:"slot"`
}

// Allocation is an immutable assignment of every node of a tree to a
// position within one broadcast cycle.
type Allocation struct {
	t        *tree.Tree
	k        int
	pos      []Position // indexed by tree.ID
	numSlots int
}

// Tree returns the tree this allocation schedules.
func (a *Allocation) Tree() *tree.Tree { return a.t }

// Channels returns the number of broadcast channels k.
func (a *Allocation) Channels() int { return a.k }

// NumSlots returns the broadcast cycle length in slots.
func (a *Allocation) NumSlots() int { return a.numSlots }

// Pos returns the position of node id.
func (a *Allocation) Pos(id tree.ID) Position { return a.pos[id] }

// Slot returns the 1-based slot of node id (the paper's T for data nodes).
func (a *Allocation) Slot(id tree.ID) int { return a.pos[id].Slot }

// Channel returns the 1-based channel of node id.
func (a *Allocation) Channel(id tree.ID) int { return a.pos[id].Channel }

// At returns the node broadcast at the given position, or tree.None. It
// scans every node, O(N) per call; walk Levels or Pos to read the whole
// grid.
func (a *Allocation) At(channel, slot int) tree.ID {
	for id := range a.pos {
		if a.pos[id].Channel == channel && a.pos[id].Slot == slot {
			return tree.ID(id)
		}
	}
	return tree.None
}

// DataWait computes the paper's Formula 1: Σ W(D)·T(D) / Σ W(D) over all
// data nodes. For a tree with zero total weight it returns 0.
func (a *Allocation) DataWait() float64 {
	total := a.t.TotalWeight()
	if total == 0 {
		return 0
	}
	var sum float64
	for _, d := range a.t.DataIDs() {
		sum += a.t.Weight(d) * float64(a.pos[d].Slot)
	}
	return sum / total
}

// Validate checks the feasibility conditions of Section 2.2: every node is
// placed exactly once at an in-range position, no two nodes share a
// position, and every child is broadcast at a strictly later slot than its
// parent. It marks positions on a flat slots·k grid, O(N + slots·k).
func (a *Allocation) Validate() error {
	if a.k < 1 {
		return fmt.Errorf("alloc: %d channels", a.k)
	}
	// occupied holds 1 + the ID at each position, 0 when free.
	occupied := make([]tree.ID, a.numSlots*a.k)
	for id := range a.pos {
		p := a.pos[id]
		if p.Channel < 1 || p.Channel > a.k {
			return fmt.Errorf("alloc: node %s on channel %d of %d",
				a.t.Label(tree.ID(id)), p.Channel, a.k)
		}
		if p.Slot < 1 || p.Slot > a.numSlots {
			return fmt.Errorf("alloc: node %s at slot %d of %d",
				a.t.Label(tree.ID(id)), p.Slot, a.numSlots)
		}
		cell := &occupied[(p.Slot-1)*a.k+p.Channel-1]
		if *cell != 0 {
			return fmt.Errorf("alloc: nodes %s and %s share channel %d slot %d",
				a.t.Label(*cell-1), a.t.Label(tree.ID(id)), p.Channel, p.Slot)
		}
		*cell = tree.ID(id) + 1
	}
	for id := range a.pos {
		parent := a.t.Parent(tree.ID(id))
		if parent == tree.None {
			continue
		}
		if a.pos[parent].Slot >= a.pos[id].Slot {
			return fmt.Errorf("alloc: child %s (slot %d) not after parent %s (slot %d)",
				a.t.Label(tree.ID(id)), a.pos[id].Slot,
				a.t.Label(parent), a.pos[parent].Slot)
		}
	}
	return nil
}

// Levels returns the allocation as compound levels: Levels()[s-1] holds the
// IDs broadcast at slot s, ordered by channel, and is nil for an empty
// slot. It buckets the nodes on a slots·k grid in O(N + slots·k). Each
// level is capped at its own length, so appending to one never writes
// into the next.
func (a *Allocation) Levels() [][]tree.ID {
	grid := make([]tree.ID, a.numSlots*a.k)
	for i := range grid {
		grid[i] = tree.None
	}
	for id, p := range a.pos {
		grid[(p.Slot-1)*a.k+p.Channel-1] = tree.ID(id)
	}
	out := make([][]tree.ID, a.numSlots)
	n := 0
	for s := range out {
		start := n
		for _, id := range grid[s*a.k : (s+1)*a.k] {
			if id != tree.None {
				grid[n] = id
				n++
			}
		}
		if n > start {
			out[s] = grid[start:n:n]
		}
	}
	return out
}

// String renders the allocation one channel per line, e.g.
//
//	C1: 1 2 A 4 C
//	C2: - 3 B E D
func (a *Allocation) String() string {
	grid := make([][]string, a.k)
	for ch := range grid {
		grid[ch] = make([]string, a.numSlots)
		for s := range grid[ch] {
			grid[ch][s] = "-"
		}
	}
	for id := range a.pos {
		p := a.pos[id]
		grid[p.Channel-1][p.Slot-1] = a.t.Label(tree.ID(id))
	}
	var b strings.Builder
	for ch := range grid {
		fmt.Fprintf(&b, "C%d: %s", ch+1, strings.Join(grid[ch], " "))
		if ch < len(grid)-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// jsonAlloc is the serialized form: labels per channel per slot ("" = empty).
type jsonAlloc struct {
	Channels int        `json:"channels"`
	Slots    int        `json:"slots"`
	Grid     [][]string `json:"grid"` // [channel][slot] node label or ""
}

// MarshalJSON encodes the allocation as a label grid.
func (a *Allocation) MarshalJSON() ([]byte, error) {
	ja := jsonAlloc{Channels: a.k, Slots: a.numSlots}
	ja.Grid = make([][]string, a.k)
	for ch := range ja.Grid {
		ja.Grid[ch] = make([]string, a.numSlots)
	}
	for id := range a.pos {
		p := a.pos[id]
		ja.Grid[p.Channel-1][p.Slot-1] = a.t.Label(tree.ID(id))
	}
	return json.Marshal(ja)
}

// FromSequence builds a single-channel allocation broadcasting seq in
// order: seq[i] is transmitted at slot i+1 on channel 1.
func FromSequence(t *tree.Tree, seq []tree.ID) (*Allocation, error) {
	levels := make([][]tree.ID, len(seq))
	for i, id := range seq {
		levels[i] = []tree.ID{id}
	}
	return FromLevels(t, 1, levels)
}

// FromLevels builds a k-channel allocation from compound levels: levels[s]
// holds the nodes transmitted at slot s+1 (at most k of them).
//
// Channels are chosen by the paper's two rules (Section 3.1): the root goes
// to channel 1, and a node goes to its parent's channel when that channel
// is free at its slot; remaining nodes fill the lowest free channels.
func FromLevels(t *tree.Tree, k int, levels [][]tree.ID) (*Allocation, error) {
	if k < 1 {
		return nil, fmt.Errorf("alloc: %d channels", k)
	}
	a := &Allocation{t: t, k: k, numSlots: len(levels)}
	a.pos = make([]Position, t.NumNodes())
	placed := make([]bool, t.NumNodes())
	free := make([]bool, k+1)
	pending := make([]tree.ID, 0, k)

	for s, level := range levels {
		slot := s + 1
		if len(level) > k {
			return nil, fmt.Errorf("alloc: slot %d has %d nodes, only %d channels", slot, len(level), k)
		}
		for ch := 1; ch <= k; ch++ {
			free[ch] = true
		}
		pending = pending[:0]
		for _, id := range level {
			if id < 0 || int(id) >= t.NumNodes() {
				return nil, fmt.Errorf("alloc: slot %d references unknown node %d", slot, id)
			}
			if placed[id] {
				return nil, fmt.Errorf("alloc: node %s placed twice", t.Label(id))
			}
			switch {
			case id == t.Root():
				// Rule 1: the root goes to the first broadcast channel.
				a.pos[id] = Position{Channel: 1, Slot: slot}
				free[1] = false
				placed[id] = true
			default:
				// Rule 2: prefer the parent's channel when free.
				p := t.Parent(id)
				ch := 0
				if p != tree.None && placed[p] {
					pc := a.pos[p].Channel
					if free[pc] {
						ch = pc
					}
				}
				if ch != 0 {
					a.pos[id] = Position{Channel: ch, Slot: slot}
					free[ch] = false
					placed[id] = true
				} else {
					pending = append(pending, id)
				}
			}
		}
		for _, id := range pending {
			ch := 0
			for c := 1; c <= k; c++ {
				if free[c] {
					ch = c
					break
				}
			}
			if ch == 0 {
				return nil, fmt.Errorf("alloc: no free channel at slot %d", slot)
			}
			a.pos[id] = Position{Channel: ch, Slot: slot}
			free[ch] = false
			placed[id] = true
		}
	}
	for id := range placed {
		if !placed[id] {
			return nil, fmt.Errorf("alloc: node %s never placed", t.Label(tree.ID(id)))
		}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// FromPositions builds an allocation from an explicit position per node
// (indexed by tree.ID). It is used to reconstruct paper figures exactly.
func FromPositions(t *tree.Tree, k int, pos []Position) (*Allocation, error) {
	if len(pos) != t.NumNodes() {
		return nil, fmt.Errorf("alloc: %d positions for %d nodes", len(pos), t.NumNodes())
	}
	a := &Allocation{t: t, k: k, pos: append([]Position(nil), pos...)}
	for _, p := range pos {
		if p.Slot > a.numSlots {
			a.numSlots = p.Slot
		}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}
