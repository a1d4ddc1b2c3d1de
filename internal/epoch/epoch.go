// Package epoch makes broadcast programs versioned, swappable artifacts.
//
// A Registry is the double buffer an adaptive tower serves from: the
// current entry — a compiled program, its wire encoding stamped with the
// epoch ID, and the ID itself — is what goes on the air, while at most
// one staged successor waits for the tower to promote it. Staging is
// cheap and may happen at any time; promotion (TrySwap) is the tower's
// call and must land only at a cycle boundary of the outgoing program,
// which is the protocol invariant that lets clients treat an epoch
// change as a clean restart rather than corruption (DESIGN.md §8).
//
// A Planner is the background half: a context-cancellable goroutine
// that, on request, rebuilds a program from live demand (the build
// function typically runs core.Solve with FallbackOnLimit so a planning
// stall degrades to a heuristic rather than blocking the swap) and
// stages the result. Requests coalesce — a burst of demand updates while
// a build is in flight yields one rebuild, not a queue of stale ones.
package epoch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ErrBuildFailed marks a planner rebuild that returned an error: the
// registry keeps serving the stale program, and callers that install
// planner output (broadcast.Station, the tower's replan path) surface
// the sentinel via errors.Is instead of silently carrying on.
var ErrBuildFailed = errors.New("epoch: program build failed")

// Entry is one epoch of a broadcast program: the compiled program, its
// pre-encoded wire packets (every bucket stamped with ID), and the ID.
type Entry struct {
	ID      uint32
	Prog    *sim.Program
	Packets [][][]byte // [channel-1][slot-1]
}

// Registry is the tower's double-buffered program store: one current
// entry on the air, at most one staged successor.
type Registry struct {
	mu  sync.Mutex
	cur Entry
	// pending is written under mu but read without it, so the tower can
	// ask at every cycle boundary whether anything is staged without
	// taking the lock.
	pending atomic.Pointer[Entry]
	nextID  uint32
	// staged and swapped count lifecycle events for observability.
	staged, swapped int
}

// NewRegistry encodes p as epoch 1 and installs it as current.
func NewRegistry(p *sim.Program) (*Registry, error) {
	packets, err := wire.EncodeProgram(p, 1)
	if err != nil {
		return nil, err
	}
	return &Registry{
		cur:    Entry{ID: 1, Prog: p, Packets: packets},
		nextID: 2,
	}, nil
}

// Current returns the entry on the air.
func (r *Registry) Current() Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// Stage encodes p under the next epoch ID and parks it as the pending
// successor, replacing any previously staged entry that never made it to
// the air (at-most-one pending). The channel count must match the
// current program — clients cannot learn of new channels mid-flight.
func (r *Registry) Stage(p *sim.Program) (uint32, error) {
	r.mu.Lock()
	cur := r.cur
	r.mu.Unlock()
	if p.Channels() != cur.Prog.Channels() {
		return 0, fmt.Errorf("epoch: staged program has %d channels, current has %d",
			p.Channels(), cur.Prog.Channels())
	}
	for {
		r.mu.Lock()
		id := r.nextID
		r.mu.Unlock()
		// Encode outside the lock: this walks the whole program.
		packets, err := wire.EncodeProgram(p, id)
		if err != nil {
			return 0, err
		}
		r.mu.Lock()
		if r.nextID == id {
			r.nextID++
			r.staged++
			r.pending.Store(&Entry{ID: id, Prog: p, Packets: packets})
			r.mu.Unlock()
			return id, nil
		}
		// A concurrent Stage won this ID; re-encode under a fresh one so
		// the on-air stamps stay truthful.
		r.mu.Unlock()
	}
}

// Pending returns the staged epoch's ID, if any.
func (r *Registry) Pending() (uint32, bool) {
	p := r.pending.Load()
	if p == nil {
		return 0, false
	}
	return p.ID, true
}

// TrySwap promotes the pending entry to current, returning the new
// entry and true, or the unchanged current entry and false when nothing
// is staged. The caller is responsible for invoking it only at a cycle
// boundary of the outgoing program.
func (r *Registry) TrySwap() (Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.pending.Load()
	if p == nil {
		return r.cur, false
	}
	r.cur = *p
	r.pending.Store(nil)
	r.swapped++
	return r.cur, true
}

// Stats reports lifecycle counts: epochs staged and swaps landed.
func (r *Registry) Stats() (staged, swapped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.staged, r.swapped
}

// Builder compiles the next program from live demand. It should honor
// ctx so a shutdown does not wait out a long solve.
type Builder func(ctx context.Context) (*sim.Program, error)

// PlannerStats counts the planner's lifecycle events.
type PlannerStats struct {
	// Builds is the number of build attempts started.
	Builds int
	// Staged is how many builds landed in the registry.
	Staged int
	// Failed is how many builds returned an error (including rejected
	// stagings).
	Failed int
}

// PlannerOptions tunes a Planner beyond its build function.
type PlannerOptions struct {
	// Obs receives the planner's counters (epoch_requests_total,
	// epoch_builds_total, epoch_staged_total, epoch_build_failures_total),
	// the epoch_rebuild_ns latency histogram and "rebuild" trace events;
	// nil disables instrumentation.
	Obs *obs.Registry
	// NowNanos is the clock used to time rebuilds. Defaults to the wall
	// clock; injectable so tests observe deterministic latencies.
	NowNanos func() int64
}

// plannerObs is the planner's bundle of instrument handles. All handles
// are nil-safe, so a zero bundle (no registry) makes every call a no-op.
type plannerObs struct {
	reg                              *obs.Registry
	requests, builds, staged, failed *obs.Counter
	latency                          *obs.Histogram
}

func newPlannerObs(r *obs.Registry) plannerObs {
	return plannerObs{
		reg:      r,
		requests: r.Counter("epoch_requests_total"),
		builds:   r.Counter("epoch_builds_total"),
		staged:   r.Counter("epoch_staged_total"),
		failed:   r.Counter("epoch_build_failures_total"),
		latency:  r.Histogram("epoch_rebuild_ns", obs.DefaultLatencyBounds),
	}
}

// Planner runs Builder in the background and stages each result.
type Planner struct {
	reg   *Registry
	build Builder
	om    plannerObs
	now   func() int64

	kick   chan struct{}
	cancel context.CancelFunc
	done   chan struct{}

	mu    sync.Mutex
	stats PlannerStats
	err   error // last build failure
}

// NewPlanner starts the planning goroutine; Close releases it.
func NewPlanner(ctx context.Context, reg *Registry, build Builder, o PlannerOptions) *Planner {
	ctx, cancel := context.WithCancel(ctx)
	now := o.NowNanos
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	pl := &Planner{
		reg:    reg,
		build:  build,
		om:     newPlannerObs(o.Obs),
		now:    now,
		kick:   make(chan struct{}, 1),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go pl.loop(ctx)
	return pl
}

// Request asks for one rebuild. Requests arriving while a build is in
// flight coalesce into a single follow-up rebuild — the gap between
// epoch_requests_total and epoch_builds_total measures that coalescing.
func (pl *Planner) Request() {
	pl.om.requests.Inc()
	select {
	case pl.kick <- struct{}{}:
	default:
	}
}

func (pl *Planner) loop(ctx context.Context) {
	defer close(pl.done)
	for {
		select {
		case <-ctx.Done():
			return
		case <-pl.kick:
		}
		pl.mu.Lock()
		pl.stats.Builds++
		pl.mu.Unlock()
		pl.om.builds.Inc()
		start := pl.now()
		prog, err := pl.build(ctx)
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrBuildFailed, err)
		}
		var id uint32
		if err == nil {
			id, err = pl.reg.Stage(prog)
		}
		elapsed := pl.now() - start
		pl.om.latency.Observe(elapsed)
		pl.mu.Lock()
		if err != nil {
			pl.stats.Failed++
			pl.err = err
		} else {
			pl.stats.Staged++
		}
		pl.mu.Unlock()
		if err != nil {
			pl.om.failed.Inc()
			pl.om.reg.Emit("rebuild", obs.A("ok", 0), obs.A("ns", elapsed))
		} else {
			pl.om.staged.Inc()
			pl.om.reg.Emit("rebuild", obs.A("ok", 1), obs.A("epoch", int64(id)), obs.A("ns", elapsed))
		}
		if ctx.Err() != nil {
			return
		}
	}
}

// Stats returns the planner's counters and its last build error.
func (pl *Planner) Stats() (PlannerStats, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.stats, pl.err
}

// Close cancels the planner and waits for the goroutine to exit.
func (pl *Planner) Close() {
	pl.cancel()
	<-pl.done
}
