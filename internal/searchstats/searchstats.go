// Package searchstats defines the per-search performance counters shared
// by the best-first search engines (internal/topo, internal/datatree).
// The counters are threaded through internal/core, printed by
// cmd/bcast-opt, and reported per search by the topo and datatree
// benchmarks.
package searchstats

// Stats counts the work one best-first search performed. All fields are
// monotone within a single search; a zero value means the solver ran a
// closed-form or heuristic path that performs no search.
type Stats struct {
	// Generated counts search states created and pushed on the queue
	// (including the root and forced-completion states).
	Generated int `json:"generated"`
	// Expanded counts states whose successors were generated.
	Expanded int `json:"expanded"`
	// RulePruned counts candidate successors rejected by the paper's
	// pruning rules before they became states.
	RulePruned int `json:"rule_pruned"`
	// DomPruned counts successors dominated at generation time — an
	// equal-or-cheaper state with the same dominance key had already been
	// pushed, so no state was allocated.
	DomPruned int `json:"dom_pruned"`
	// DomStale counts queued states skipped at pop time because a
	// strictly cheaper state with the same dominance key was pushed after
	// them.
	DomStale int `json:"dom_stale"`
	// PeakQueue is the maximum length the priority queue reached.
	PeakQueue int `json:"peak_queue"`
	// HashCollisions counts dominance-table lookups whose 64-bit hash
	// matched an entry with a different full key (resolved by chaining).
	HashCollisions int `json:"hash_collisions"`
}

// Add accumulates t into s, taking the max of the peak gauge. It is the
// merge used when reporting several searches as one aggregate.
func (s *Stats) Add(t Stats) {
	s.Generated += t.Generated
	s.Expanded += t.Expanded
	s.RulePruned += t.RulePruned
	s.DomPruned += t.DomPruned
	s.DomStale += t.DomStale
	if t.PeakQueue > s.PeakQueue {
		s.PeakQueue = t.PeakQueue
	}
	s.HashCollisions += t.HashCollisions
}
