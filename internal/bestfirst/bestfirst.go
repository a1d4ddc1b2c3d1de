// Package bestfirst is the search engine both of the paper's search trees
// run on: the k-channel topological tree (internal/topo, Section 3) and
// the single-channel data tree (internal/datatree, Section 3.3). The paper
// solves both with one method, a best-first search ordered by
// E(X) = V(X) + U(X); this package is that method, written once.
//
// A search tree supplies a Space: how to make a blank state, a state's
// dominance key (a 64-bit hash plus full-key equality), its accumulated
// cost V and admissible bound U, the goal test, and the successor step.
// The step applies the paper's rules and hands each surviving successor to
// a Sink. Search drives the step best-first; Walk drives the same step
// depth-first to enumerate or materialize the whole tree.
//
// Search keeps one dominance table: for each key, the cheapest V pushed so
// far. A successor is pushed only when strictly cheaper than the incumbent
// (push-skip on existing ≤ new), and a queued state is skipped at pop time
// when a strictly cheaper state with its key was pushed after it (pop-skip
// on existing < current). Every pushed state, the root included, is
// recorded, so equal-cost duplicates are never expanded twice. Successors
// rejected by Admit and states skipped at pop time are recycled through a
// pool: neither is referenced by anything (a pop-skipped state was never
// expanded, so it is nobody's parent, and the table entry for its key
// holds a strictly cheaper state), so dominated work allocates nothing.
package bestfirst

import (
	"errors"
	"fmt"

	"repro/internal/pool"
	"repro/internal/pqueue"
	"repro/internal/searchstats"
)

// ErrExpansionLimit is the sentinel wrapped by Search when it aborts after
// its expansion limit; callers detect it with errors.Is to fall back to a
// heuristic instead of failing outright.
var ErrExpansionLimit = errors.New("expansion limit exceeded")

// Space is one search tree as the engine sees it. S is the tree's state,
// a pointer type; a state handed to a Sink is immutable once pushed.
type Space[S any] interface {
	// New returns a blank state for the engine to fill and recycle.
	New() S
	// Hash folds s's dominance key into 64 bits; Same reports whether a
	// and b have equal full keys.
	Hash(s S) uint64
	Same(a, b S) bool
	// Cost is s's accumulated cost V(X); Bound is an admissible lower
	// bound U(X) on the cost still to come below s.
	Cost(s S) float64
	Bound(s S) float64
	// Goal reports whether s is a complete solution.
	Goal(s S) bool
	// Expand generates s's successors: for each one it takes a state from
	// out.New, sets the state's dominance key and cost, and — only if
	// out.Admit accepts it — finishes the state and calls out.Push. A
	// rejected state belongs to the sink again and must be dropped.
	Expand(s S, out Sink[S])
}

// Sink receives the successors a Space's step generates.
type Sink[S any] interface {
	New() S
	Admit(s S) bool
	Push(s S)
}

// Search runs the best-first search from root and returns the first goal
// state popped, which is optimal when Bound is admissible. ok is false when
// the space holds no reachable goal. limit > 0 bounds the number of
// expansions: a search that would expand one more state fails with
// ErrExpansionLimit. st accumulates the search's counters; the Space counts
// RulePruned itself.
func Search[S any](sp Space[S], root S, limit int, st *searchstats.Stats) (goal S, ok bool, err error) {
	e := &search[S]{
		sp:   sp,
		q:    pqueue.New(func(a, b item[S]) bool { return a.f < b.f }),
		dom:  make(map[uint64]*entry[S]),
		free: pool.New(sp.New),
		st:   st,
	}
	e.Admit(root)
	e.Push(root)
	for e.q.Len() > 0 {
		cur := e.q.Pop()
		if d := e.lookup(sp.Hash(cur.s), cur.s); d != nil && d.v < cur.v {
			st.DomStale++
			e.free.Put(cur.s)
			continue
		}
		if sp.Goal(cur.s) {
			st.PeakQueue = e.q.Peak()
			return cur.s, true, nil
		}
		if limit > 0 && st.Expanded >= limit {
			return goal, false, fmt.Errorf("%w (limit %d)", ErrExpansionLimit, limit)
		}
		st.Expanded++
		sp.Expand(cur.s, e)
	}
	return goal, false, nil
}

// item is a queued state with its V and its priority E = V + U.
type item[S any] struct {
	s    S
	v, f float64
}

// entry is the incumbent of one dominance key: the cheapest state pushed
// with it, which also holds the full key for collision checks. Chaining
// over next resolves 64-bit hash collisions.
type entry[S any] struct {
	s    S
	v    float64
	next *entry[S]
}

type search[S any] struct {
	sp   Space[S]
	q    *pqueue.Queue[item[S]]
	dom  map[uint64]*entry[S]
	free *pool.Pool[S]
	st   *searchstats.Stats

	// The key slot of the state Admit accepted, for the Push that follows.
	h uint64
	e *entry[S]
	v float64
}

// lookup returns the entry whose full key matches s, or nil, counting
// every entry it walks past with the same hash but a different key.
func (e *search[S]) lookup(h uint64, s S) *entry[S] {
	for d := e.dom[h]; d != nil; d = d.next {
		if e.sp.Same(d.s, s) {
			return d
		}
		e.st.HashCollisions++
	}
	return nil
}

func (e *search[S]) New() S { return e.free.Get() }

// Admit rejects s when an equal-or-cheaper state with its key was already
// pushed, recycling it and counting DomPruned.
func (e *search[S]) Admit(s S) bool {
	e.h, e.v = e.sp.Hash(s), e.sp.Cost(s)
	e.e = e.lookup(e.h, s)
	if e.e != nil && e.e.v <= e.v {
		e.st.DomPruned++
		e.free.Put(s)
		return false
	}
	return true
}

// Push records s as its key's incumbent and queues it by V + U.
func (e *search[S]) Push(s S) {
	if e.e != nil {
		e.e.s, e.e.v = s, e.v
	} else {
		e.dom[e.h] = &entry[S]{s: s, v: e.v, next: e.dom[e.h]}
	}
	e.st.Generated++
	e.q.Push(item[S]{s: s, v: e.v, f: e.v + e.sp.Bound(s)})
}

// Walk visits the tree below root depth-first, in the order the step
// generates successors, calling visit with each state and its depth (the
// root at 0). Goal states are not expanded. visit returns false to stop
// the walk. The states passed to visit are reused once their subtree is
// done: one per depth of the current path.
func Walk[S any](sp Space[S], root S, visit func(s S, depth int) bool) {
	w := &walker[S]{sp: sp, visit: visit}
	w.path = append(w.buf[:0], root)
	w.enter(root)
}

type walker[S any] struct {
	sp    Space[S]
	visit func(S, int) bool
	path  []S  // path[d] is the storage for the state at depth d
	buf   [8]S // backs path while the walk is shallow
	depth int
	stop  bool
}

func (w *walker[S]) enter(s S) {
	if !w.visit(s, w.depth) {
		w.stop = true
		return
	}
	if !w.sp.Goal(s) {
		w.sp.Expand(s, w)
	}
}

func (w *walker[S]) New() S {
	if w.depth+1 == len(w.path) {
		w.path = append(w.path, w.sp.New())
	}
	return w.path[w.depth+1]
}

func (w *walker[S]) Admit(S) bool { return !w.stop }

func (w *walker[S]) Push(s S) {
	w.depth++
	w.enter(s)
	w.depth--
}
