// Package core is the paper's contribution assembled into one solver: it
// picks, per instance, among the Corollary 1 fast path, the pruned
// best-first topological-tree search (k channels), the data-tree search
// (one channel), and the Section 4.2 heuristics for instances too large
// for exact search — and reports whether the returned allocation is
// provably optimal.
package core

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/bestfirst"
	"repro/internal/datatree"
	"repro/internal/heuristic"
	"repro/internal/searchstats"
	"repro/internal/topo"
	"repro/internal/tree"
)

// Strategy names a solving method.
type Strategy int

const (
	// Auto picks the cheapest method that is exact for small instances
	// and falls back to Index Tree Sorting for large ones.
	Auto Strategy = iota
	// Exact forces the provably optimal search regardless of size.
	Exact
	// PrunedSearch forces the paper's pruned topological-tree search.
	PrunedSearch
	// DataTree forces the single-channel data-tree search.
	DataTree
	// Sorting forces the Index Tree Sorting heuristic (any k).
	Sorting
	// Shrinking forces Index Tree Shrinking (single channel).
	Shrinking
	// Partitioning forces Tree Partitioning (single channel).
	Partitioning
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Exact:
		return "exact"
	case PrunedSearch:
		return "pruned-search"
	case DataTree:
		return "data-tree"
	case Sorting:
		return "sorting"
	case Shrinking:
		return "shrinking"
	case Partitioning:
		return "partitioning"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps a name (as printed by String) back to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range []Strategy{Auto, Exact, PrunedSearch, DataTree, Sorting, Shrinking, Partitioning} {
		if s.String() == name {
			return s, nil
		}
	}
	return Auto, fmt.Errorf("core: unknown strategy %q", name)
}

// Config controls Solve.
type Config struct {
	// Channels is the number of broadcast channels (>= 1).
	Channels int
	// Strategy selects the method; Auto by default.
	Strategy Strategy
	// MaxExactData bounds the data-node count for which Auto still runs
	// an exact search. Defaults to 12.
	MaxExactData int
	// ShrinkTo is the reduction target of the Shrinking and Partitioning
	// strategies. Defaults to MaxExactData.
	ShrinkTo int
	// MaxExpanded caps search expansions (0 = unlimited); exceeding it is
	// an error for forced exact strategies.
	MaxExpanded int
	// FallbackOnLimit degrades gracefully when MaxExpanded trips: instead
	// of failing, Solve reruns the instance through the Index Tree
	// Sorting heuristic and returns that allocation with Optimal false
	// and the limit error recorded on Solution.LimitErr. Long-running
	// stations use this so a pathological replan cannot take down the
	// broadcast.
	FallbackOnLimit bool
	// Polish runs the exchange-based local search over heuristic results
	// (no effect on already-optimal solutions).
	Polish bool
	// LiveChannels restricts the solve to a subset of the physical
	// channels — the survivors of an outage. It must be a strictly
	// increasing list of channels in [1, Channels]; the solver then plans
	// at width len(LiveChannels) and records the subset on Solution.Live
	// so the caller can remap the compiled program back to full physical
	// width. Empty means all channels are live.
	LiveChannels []int
}

func (c Config) withDefaults() Config {
	if c.MaxExactData == 0 {
		c.MaxExactData = 12
	}
	if c.ShrinkTo == 0 {
		c.ShrinkTo = c.MaxExactData
	}
	return c
}

// Solution is a solved allocation.
type Solution struct {
	// Alloc is the produced allocation over the input tree.
	Alloc *alloc.Allocation
	// Cost is the average data wait (Formula 1) in buckets.
	Cost float64
	// Used is the strategy that actually ran.
	Used Strategy
	// Optimal reports whether Cost is provably minimal.
	Optimal bool
	// Expanded/Generated are search-effort counters (zero for heuristics
	// and the Corollary 1 path); they mirror the corresponding Stats
	// fields.
	Expanded, Generated int
	// Stats holds the full per-search performance counters of the search
	// that ran (zero for heuristics and the Corollary 1 path).
	Stats searchstats.Stats
	// LimitErr is the expansion-limit error an exact search died with
	// before Config.FallbackOnLimit rescued the solve with a heuristic;
	// nil when the strategy that ran completed on its own.
	LimitErr error
	// Live echoes Config.LiveChannels when the solve was restricted to a
	// channel subset: Alloc's channel i lives on physical channel Live[i-1].
	// Nil for a full-width solve.
	Live []int
}

// Solve computes an index-and-data allocation for t on cfg.Channels
// channels.
func Solve(t *tree.Tree, cfg Config) (*Solution, error) {
	cfg = cfg.withDefaults()
	if cfg.Channels < 1 {
		return nil, fmt.Errorf("core: %d channels", cfg.Channels)
	}
	if live := cfg.LiveChannels; len(live) > 0 {
		for i, ch := range live {
			if ch < 1 || ch > cfg.Channels {
				return nil, fmt.Errorf("core: live channel %d outside [1, %d]", ch, cfg.Channels)
			}
			if i > 0 && ch <= live[i-1] {
				return nil, fmt.Errorf("core: live channels %v not strictly increasing", live)
			}
		}
		sub := cfg
		sub.LiveChannels = nil
		sub.Channels = len(live)
		sol, err := Solve(t, sub)
		if err != nil {
			return nil, err
		}
		sol.Live = append([]int{}, live...)
		return sol, nil
	}
	switch cfg.Strategy {
	case Auto:
		// Corollary 1: wide channels make the level allocation optimal.
		if res, ok, err := topo.Corollary1(t, cfg.Channels); err != nil {
			return nil, err
		} else if ok {
			return &Solution{Alloc: res.Alloc, Cost: res.Cost, Used: Auto, Optimal: true}, nil
		}
		next := cfg
		if t.NumData() <= cfg.MaxExactData {
			next.Strategy = Exact
		} else {
			next.Strategy = Sorting
		}
		sol, err := Solve(t, next)
		if err != nil {
			return nil, err
		}
		return sol, nil
	case Exact, PrunedSearch, DataTree:
		return solveExact(t, cfg)
	case Sorting:
		a, err := heuristic.AllocateSorted(t, cfg.Channels)
		if err != nil {
			return nil, err
		}
		return finishHeuristic(a, Sorting, cfg)
	case Shrinking:
		if cfg.Channels != 1 {
			return nil, fmt.Errorf("core: shrinking strategy requires 1 channel, got %d", cfg.Channels)
		}
		a, err := heuristic.SolveShrinking(t, cfg.ShrinkTo)
		if err != nil {
			return nil, err
		}
		return finishHeuristic(a, Shrinking, cfg)
	case Partitioning:
		if cfg.Channels != 1 {
			return nil, fmt.Errorf("core: partitioning strategy requires 1 channel, got %d", cfg.Channels)
		}
		a, err := heuristic.SolvePartitioning(t, cfg.ShrinkTo)
		if err != nil {
			return nil, err
		}
		return finishHeuristic(a, Partitioning, cfg)
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", cfg.Strategy)
	}
}

func solveExact(t *tree.Tree, cfg Config) (*Solution, error) {
	if cfg.Strategy == DataTree && cfg.Channels != 1 {
		return nil, fmt.Errorf("core: data-tree strategy requires 1 channel, got %d", cfg.Channels)
	}
	if cfg.Channels == 1 && cfg.Strategy != PrunedSearch {
		res, err := datatree.Search(t, datatree.Options{
			Property1: true, Property4: true, MaxExpanded: cfg.MaxExpanded,
		})
		if err != nil {
			return fallbackOnLimit(t, cfg, err)
		}
		return &Solution{
			Alloc: res.Alloc, Cost: res.Cost, Used: DataTree, Optimal: true,
			Expanded: res.Expanded, Generated: res.Generated, Stats: res.Stats,
		}, nil
	}
	opts := topo.Options{
		Channels:    cfg.Channels,
		Prune:       topo.AllPrunes(),
		TightBound:  true,
		MaxExpanded: cfg.MaxExpanded,
	}
	if cfg.Strategy == Exact {
		// The exact configuration keeps only the provably-safe rules.
		opts.Prune = topo.Prune{Property1: true, DataRank: true}
	}
	res, err := topo.Search(t, opts)
	if err != nil {
		return fallbackOnLimit(t, cfg, err)
	}
	return &Solution{
		Alloc: res.Alloc, Cost: res.Cost, Used: cfg.Strategy, Optimal: true,
		Expanded: res.Expanded, Generated: res.Generated, Stats: res.Stats,
	}, nil
}

// fallbackOnLimit rescues an exact solve whose search tripped the
// expansion limit: when the config allows it, the instance reruns through
// the sorting heuristic (which is linear-time and cannot fail the same
// way) and the limit error is preserved on the solution for observability.
// Any other error — and any error with the fallback disabled — passes
// through unchanged.
func fallbackOnLimit(t *tree.Tree, cfg Config, err error) (*Solution, error) {
	if !cfg.FallbackOnLimit || !errors.Is(err, bestfirst.ErrExpansionLimit) {
		return nil, err
	}
	a, herr := heuristic.AllocateSorted(t, cfg.Channels)
	if herr != nil {
		return nil, fmt.Errorf("core: heuristic fallback after %v: %w", err, herr)
	}
	sol, herr := finishHeuristic(a, Sorting, cfg)
	if herr != nil {
		return nil, fmt.Errorf("core: heuristic fallback after %v: %w", err, herr)
	}
	sol.LimitErr = err
	return sol, nil
}

// finishHeuristic optionally polishes a heuristic allocation and wraps it.
func finishHeuristic(a *alloc.Allocation, used Strategy, cfg Config) (*Solution, error) {
	if cfg.Polish {
		polished, _, err := heuristic.Polish(a)
		if err != nil {
			return nil, err
		}
		a = polished
	}
	return &Solution{Alloc: a, Cost: a.DataWait(), Used: used}, nil
}
