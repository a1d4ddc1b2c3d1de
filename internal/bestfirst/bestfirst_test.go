package bestfirst

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/searchstats"
)

// dag is a toy Space: shortest paths from node 0 to node 4 over a small
// weighted DAG, keyed by node, with a zero bound (so Search is Dijkstra).
// collide folds every key to one hash, forcing full-key comparisons.
type dag struct{ collide bool }

type node struct {
	id int
	v  float64
}

// edges lists each node's successors in generation order.
var edges = [][]struct {
	to int
	w  float64
}{
	0: {{1, 1}, {2, 4}},
	1: {{2, 3}, {3, 5}},
	2: {{3, 1}},
	3: {{4, 10}},
}

func (d dag) New() *node { return &node{} }
func (d dag) Hash(s *node) uint64 {
	if d.collide {
		return 0
	}
	return uint64(s.id)
}
func (d dag) Same(a, b *node) bool  { return a.id == b.id }
func (d dag) Cost(s *node) float64  { return s.v }
func (d dag) Bound(s *node) float64 { return 0 }
func (d dag) Goal(s *node) bool     { return s.id == 4 }
func (d dag) Expand(s *node, out Sink[*node]) {
	if s.id >= len(edges) {
		return
	}
	for _, e := range edges[s.id] {
		n := out.New()
		n.id, n.v = e.to, s.v+e.w
		if out.Admit(n) {
			out.Push(n)
		}
	}
}

// TestSearchDominanceAndCounters traces the engine by hand on the toy DAG:
// 1→2 reaches node 2 at the incumbent's cost and is push-skipped
// (DomPruned); 2→3 undercuts the queued 1→3, which is then pop-skipped
// (DomStale). Colliding hashes change nothing but HashCollisions.
func TestSearchDominanceAndCounters(t *testing.T) {
	for _, collide := range []bool{false, true} {
		var st searchstats.Stats
		goal, ok, err := Search[*node](dag{collide}, &node{}, 0, &st)
		if err != nil || !ok || goal.id != 4 || goal.v != 15 {
			t.Fatalf("collide=%v: goal %+v ok=%v err=%v, want node 4 at 15", collide, goal, ok, err)
		}
		want := searchstats.Stats{Generated: 6, Expanded: 4, DomPruned: 1, DomStale: 1, PeakQueue: 2}
		if collide {
			if st.HashCollisions == 0 {
				t.Errorf("colliding hashes counted no collisions")
			}
			want.HashCollisions = st.HashCollisions
		}
		if st != want {
			t.Errorf("collide=%v: stats %+v, want %+v", collide, st, want)
		}
	}
}

// TestSearchLimitBoundary: the limit is checked before an expansion is
// counted, so the search that needs four expansions succeeds at
// limit 4 and fails with ErrExpansionLimit at 3.
func TestSearchLimitBoundary(t *testing.T) {
	var st searchstats.Stats
	if _, ok, err := Search[*node](dag{}, &node{}, 4, &st); !ok || err != nil {
		t.Fatalf("limit 4: ok=%v err=%v", ok, err)
	}
	st = searchstats.Stats{}
	_, ok, err := Search[*node](dag{}, &node{}, 3, &st)
	if ok || !errors.Is(err, ErrExpansionLimit) || st.Expanded != 3 {
		t.Fatalf("limit 3: ok=%v err=%v expanded=%d", ok, err, st.Expanded)
	}
}

// TestWalkOrderAndStop: Walk visits every path depth-first in generation
// order, ignoring dominance, does not expand goals, and stops as soon as
// visit returns false.
func TestWalkOrderAndStop(t *testing.T) {
	var got string
	Walk[*node](dag{}, &node{}, func(s *node, depth int) bool {
		got += fmt.Sprintf("%d@%d ", s.id, depth)
		return true
	})
	if want := "0@0 1@1 2@2 3@3 4@4 3@2 4@3 2@1 3@2 4@3 "; got != want {
		t.Errorf("walk order\n got %s\nwant %s", got, want)
	}
	n := 0
	Walk[*node](dag{}, &node{}, func(*node, int) bool { n++; return n < 4 })
	if n != 4 {
		t.Errorf("walk visited %d states after a stop at the 4th, want 4", n)
	}
}
