// Package retrieval plans multi-key batch retrievals over a compiled
// broadcast program. The paper's allocation minimizes the *single-item*
// expected wait; a real client asks for a set of items, and on multiple
// channels two wanted nodes can air in overlapping slots — a conflict
// that forces one of them to spill to the next cycle. Given a
// sim.Program, an arrival slot and K wanted data nodes, the planner
// computes a tune schedule — which channel to listen to at each slot,
// when to hop, honoring a configurable channel-switch cost and an
// antenna count a ≥ 1 — collecting all K nodes in minimum total slots:
//
//   - exact: a shortest-path DP over (channel, collected-bitset) states
//     on the slot axis, optimal for small K with one antenna;
//   - greedy: largest-weight-first assignment with next-cycle spill,
//     linear in K and the fallback for large batches and multi-antenna
//     receivers.
//
// Plans are plain data (sim.BatchPlan); sim.Program.QueryBatch executes
// them analytically and netcast.Client.ReadBatch over real sockets, so
// planning is decoupled from both execution paths. Conflicts are
// detected and accounted on the finished schedule: a target read j > 0
// whole cycles after its first catchable airing records one conflict
// and j extra cycles.
package retrieval

import (
	"fmt"
	"sort"

	"repro/internal/alloc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tree"
)

// DefaultSwitchCost is the channel-switch penalty in slots when Config
// does not set one: retuning costs one slot of dead time, the classic
// model of Guo et al.'s multi-antenna retrieval problem.
const DefaultSwitchCost = 1

// DefaultMaxExactK is the largest batch the auto-selecting PlanBatch
// solves exactly; the state space is k·2^K, so beyond this the greedy
// planner takes over.
const DefaultMaxExactK = 10

// maxExactHard is the hard ceiling of the exact DP's bitset width.
const maxExactHard = 16

// Config parameterizes a Planner. The zero value plans for a
// single-antenna receiver with a one-slot switch cost and the default
// exact/greedy crossover.
type Config struct {
	// SwitchCost is the slots an antenna is deaf while retuning to
	// another channel (0 = DefaultSwitchCost; negative = free switching).
	SwitchCost int
	// Antennas is how many channels the client can listen to at once
	// (0 or 1 = single antenna). Multi-antenna plans are always greedy.
	Antennas int
	// MaxExactK bounds the batch size PlanBatch solves exactly
	// (0 = DefaultMaxExactK; negative = always greedy).
	MaxExactK int
	// Obs, when non-nil, receives planner metrics and conflict trace
	// events. Observation never changes the plan.
	Obs *obs.Registry
	// Now, when non-nil, stamps plan latency into the batch_plan_ns
	// histogram. It is injected (the cmd binaries pass wall nanoseconds)
	// so the package itself stays on the determinism analyzer's list.
	Now func() int64
}

func (c Config) switchCost() int {
	if c.SwitchCost == 0 {
		return DefaultSwitchCost
	}
	if c.SwitchCost < 0 {
		return 0
	}
	return c.SwitchCost
}

func (c Config) antennas() int {
	if c.Antennas < 1 {
		return 1
	}
	return c.Antennas
}

func (c Config) maxExactK() int {
	if c.MaxExactK == 0 {
		return DefaultMaxExactK
	}
	if c.MaxExactK < 0 {
		return 0
	}
	if c.MaxExactK > maxExactHard {
		return maxExactHard
	}
	return c.MaxExactK
}

// Planner computes batch tune schedules. It implements sim.BatchPlanner.
type Planner struct {
	cfg Config
	om  plannerObs
}

// plannerObs bundles the planner's instrument handles; all nil (no-op)
// without a registry.
type plannerObs struct {
	reg       *obs.Registry
	plans     *obs.Counter
	conflicts *obs.Counter
	planNs    *obs.Histogram
}

// New returns a planner for the given configuration.
func New(cfg Config) *Planner {
	return &Planner{
		cfg: cfg,
		om: plannerObs{
			reg:       cfg.Obs,
			plans:     cfg.Obs.Counter("batch_plans_total"),
			conflicts: cfg.Obs.Counter("batch_conflicts_total"),
			planNs:    cfg.Obs.Histogram("batch_plan_ns", obs.DefaultLatencyBounds),
		},
	}
}

// PlanBatch computes a tune schedule collecting all targets for a client
// arriving at the given absolute slot: exact for batches up to MaxExactK
// on a single antenna, greedy otherwise.
func (pl *Planner) PlanBatch(p *sim.Program, arrival int, targets []tree.ID) (*sim.BatchPlan, error) {
	start := pl.now()
	var plan *sim.BatchPlan
	var events []conflictEvent
	var err error
	if len(targets) <= pl.cfg.maxExactK() && pl.cfg.antennas() == 1 {
		plan, events, err = pl.planExact(p, arrival, targets)
	} else {
		plan, events, err = pl.planGreedy(p, arrival, targets)
	}
	if err != nil {
		return nil, err
	}
	pl.observe(plan, events, start)
	return plan, nil
}

// PlanExact computes the optimal single-antenna schedule by shortest
// path over (channel, collected-bitset) states; K is capped at 16 bits.
func (pl *Planner) PlanExact(p *sim.Program, arrival int, targets []tree.ID) (*sim.BatchPlan, error) {
	start := pl.now()
	plan, events, err := pl.planExact(p, arrival, targets)
	if err != nil {
		return nil, err
	}
	pl.observe(plan, events, start)
	return plan, nil
}

// PlanGreedy computes the largest-weight-first schedule: targets in
// descending weight order each take the earliest airing any antenna can
// still catch, spilling to the next cycle when the first is lost to a
// conflict or a retune.
func (pl *Planner) PlanGreedy(p *sim.Program, arrival int, targets []tree.ID) (*sim.BatchPlan, error) {
	start := pl.now()
	plan, events, err := pl.planGreedy(p, arrival, targets)
	if err != nil {
		return nil, err
	}
	pl.observe(plan, events, start)
	return plan, nil
}

func (pl *Planner) now() int64 {
	if pl.cfg.Now == nil {
		return 0
	}
	return pl.cfg.Now()
}

// observe records one finished plan: plan count, conflict count, plan
// latency (only with an injected clock) and one trace event per
// conflicted target, in schedule order.
func (pl *Planner) observe(plan *sim.BatchPlan, events []conflictEvent, start int64) {
	pl.om.plans.Inc()
	pl.om.conflicts.Add(int64(plan.Conflicts))
	if pl.cfg.Now != nil {
		pl.om.planNs.Observe(pl.cfg.Now() - start)
	}
	for _, e := range events {
		pl.om.reg.Emit("conflict",
			obs.A("channel", int64(e.channel)),
			obs.A("slot", int64(e.slot)),
			obs.A("cycles", int64(e.cycles)))
	}
}

// validate checks the request: a non-empty set of distinct data nodes of
// the program's tree and a non-negative arrival.
func validate(p *sim.Program, arrival int, targets []tree.ID) error {
	if arrival < 0 {
		return fmt.Errorf("retrieval: negative arrival %d", arrival)
	}
	if len(targets) == 0 {
		return fmt.Errorf("retrieval: empty batch")
	}
	t := p.Tree()
	seen := make([]bool, t.NumNodes())
	for _, id := range targets {
		if int(id) < 0 || int(id) >= t.NumNodes() {
			return fmt.Errorf("retrieval: node %d outside the tree", id)
		}
		if !t.IsData(id) {
			return fmt.Errorf("retrieval: %s is not a data node", t.Label(id))
		}
		if seen[id] {
			return fmt.Errorf("retrieval: duplicate target %s", t.Label(id))
		}
		seen[id] = true
	}
	return nil
}

// nextAiring returns the first absolute slot at or after from where the
// 1-based cycle slot cs airs, on a cycle of length cycleLen.
func nextAiring(cs, cycleLen, from int) int {
	return from + (cs-1-from%cycleLen+cycleLen)%cycleLen
}

// conflictEvent is one conflicted target of a finished schedule, for the
// trace log.
type conflictEvent struct {
	channel, slot, cycles int
}

// finishPlan orders the steps, fills in item identity, and accounts
// conflicts and retunes — the same rule for both planners, computed from
// the final schedule: a target read j > 0 whole cycles after its first
// catchable airing (first airing at or after arrival) is one conflict
// costing j extra cycles.
func finishPlan(p *sim.Program, arrival, antennas, switchCost int, steps []sim.BatchStep) (*sim.BatchPlan, []conflictEvent) {
	t := p.Tree()
	L := p.CycleLen()
	sort.Slice(steps, func(i, j int) bool {
		if steps[i].Slot != steps[j].Slot {
			return steps[i].Slot < steps[j].Slot
		}
		return steps[i].Antenna < steps[j].Antenna
	})
	plan := &sim.BatchPlan{
		Arrival:    arrival,
		Antennas:   antennas,
		SwitchCost: switchCost,
		Steps:      steps,
	}
	var events []conflictEvent
	lastCh := make([]int, antennas)
	for i := range steps {
		st := &steps[i]
		st.Label = t.Label(st.Node)
		if k, ok := t.Key(st.Node); ok {
			st.Key = k
		}
		first := nextAiring(p.Position(st.Node).Slot, L, arrival)
		if j := (st.Slot - first) / L; j > 0 {
			plan.Conflicts++
			plan.ExtraCycles += j
			events = append(events, conflictEvent{st.Channel, st.Slot, j})
		}
		if lastCh[st.Antenna] != 0 && lastCh[st.Antenna] != st.Channel {
			plan.Switches++
		}
		lastCh[st.Antenna] = st.Channel
	}
	return plan, events
}

// exactRec is one state's backpointer in the exact DP.
type exactRec struct {
	prev     int32 // predecessor state index, -1 at the roots
	readSlot int32 // absolute slot of the read entering this state, -1 for a retune
	target   int16 // index into targets of the node read, -1 for a retune
}

// planExact is optimal single-antenna batch scheduling as a shortest
// path on the slot axis. A state is (tuned channel, set of collected
// targets) with the earliest slot the antenna is ready to read again;
// transitions either read the next airing of an uncollected target on
// the current channel (ready one slot after the read) or retune to
// another channel (ready SwitchCost slots later). All channels are
// reachable free at arrival (the first tune costs nothing). States are
// expanded in slot order from a bucket queue, so the first full-set
// state popped has minimum makespan; ties resolve deterministically by
// push order (channel, then target index).
func (pl *Planner) planExact(p *sim.Program, arrival int, targets []tree.ID) (*sim.BatchPlan, []conflictEvent, error) {
	if err := validate(p, arrival, targets); err != nil {
		return nil, nil, err
	}
	K := len(targets)
	if K > maxExactHard {
		return nil, nil, fmt.Errorf("retrieval: exact planner caps batches at %d keys (got %d); use PlanGreedy", maxExactHard, K)
	}
	k, L, sc := p.Channels(), p.CycleLen(), pl.cfg.switchCost()
	pos := make([]alloc.Position, K)
	for i, id := range targets {
		pos[i] = p.Position(id)
	}
	full := 1<<K - 1
	nStates := k << K
	const unreached = int(^uint(0) >> 1)
	earliest := make([]int, nStates)
	for i := range earliest {
		earliest[i] = unreached
	}
	parent := make([]exactRec, nStates)
	// Collecting one more target costs at most a retune plus a full
	// cycle, so the optimum finishes within this horizon.
	horizon := arrival + K*(L+sc) + sc + 1
	queue := make([][]int32, horizon-arrival+1)
	push := func(state, at int, rec exactRec) {
		if at > horizon || at >= earliest[state] {
			return
		}
		earliest[state] = at
		parent[state] = rec
		queue[at-arrival] = append(queue[at-arrival], int32(state))
	}
	for ch := 1; ch <= k; ch++ {
		push((ch-1)<<K, arrival, exactRec{prev: -1, readSlot: -1, target: -1})
	}
	goal := -1
	for t := arrival; t <= horizon && goal < 0; t++ {
		// Free switching (sc == 0) appends to the bucket being drained;
		// index through the queue slot so those entries are still
		// processed at t.
		for bi := 0; bi < len(queue[t-arrival]); bi++ {
			state := int(queue[t-arrival][bi])
			if earliest[state] != t {
				continue // superseded by a better path
			}
			ch, mask := state>>K+1, state&full
			if mask == full {
				goal = state
				break
			}
			for ch2 := 1; ch2 <= k; ch2++ {
				if ch2 != ch {
					push((ch2-1)<<K|mask, t+sc, exactRec{prev: int32(state), readSlot: -1, target: -1})
				}
			}
			for i := 0; i < K; i++ {
				if mask&(1<<i) != 0 || pos[i].Channel != ch {
					continue
				}
				at := nextAiring(pos[i].Slot, L, t)
				push((ch-1)<<K|mask|1<<i, at+1, exactRec{prev: int32(state), readSlot: int32(at), target: int16(i)})
			}
		}
	}
	if goal < 0 {
		return nil, nil, fmt.Errorf("retrieval: exact plan did not converge within %d slots", horizon-arrival)
	}
	var steps []sim.BatchStep
	for cur := goal; cur >= 0; {
		rec := parent[cur]
		if rec.target >= 0 {
			steps = append(steps, sim.BatchStep{
				Antenna: 0,
				Channel: cur>>K + 1,
				Slot:    int(rec.readSlot),
				Node:    targets[rec.target],
			})
		}
		cur = int(rec.prev)
	}
	plan, events := finishPlan(p, arrival, 1, sc, steps)
	return plan, events, nil
}

// planGreedy schedules targets largest weight first (ties by node id):
// each target takes the earliest airing any antenna can still catch —
// an antenna tuned elsewhere pays the switch cost first — and a target
// whose first airing is already lost spills to the next cycle. O(K·a)
// after the sort, for any K and any antenna count.
func (pl *Planner) planGreedy(p *sim.Program, arrival int, targets []tree.ID) (*sim.BatchPlan, []conflictEvent, error) {
	if err := validate(p, arrival, targets); err != nil {
		return nil, nil, err
	}
	t := p.Tree()
	L, sc, a := p.CycleLen(), pl.cfg.switchCost(), pl.cfg.antennas()
	order := append([]tree.ID(nil), targets...)
	sort.Slice(order, func(i, j int) bool {
		wi, wj := t.Weight(order[i]), t.Weight(order[j])
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	type antenna struct {
		ready int // first slot this antenna can read
		ch    int // tuned channel, 0 before the free first tune
	}
	ants := make([]antenna, a)
	for i := range ants {
		ants[i].ready = arrival
	}
	steps := make([]sim.BatchStep, 0, len(order))
	for _, id := range order {
		pos := p.Position(id)
		best, bestAt := -1, 0
		for ai := range ants {
			from := ants[ai].ready
			if ants[ai].ch != 0 && ants[ai].ch != pos.Channel {
				from += sc
			}
			at := nextAiring(pos.Slot, L, from)
			if best < 0 || at < bestAt {
				best, bestAt = ai, at
			}
		}
		steps = append(steps, sim.BatchStep{Antenna: best, Channel: pos.Channel, Slot: bestAt, Node: id})
		ants[best] = antenna{ready: bestAt + 1, ch: pos.Channel}
	}
	plan, events := finishPlan(p, arrival, a, sc, steps)
	return plan, events, nil
}

// SequentialBaseline is the planless yardstick: K single-key queries run
// back to back, each arriving the slot after the previous one finished,
// paying the full probe-and-descent every time. Targets run largest
// weight first, matching the greedy planner's order. Unlike a batch
// plan, each leg draws on a fresh retry budget — the baseline models K
// independent queries, not one session. The summed metrics are what A11
// compares the planners against.
func SequentialBaseline(p *sim.Program, arrival int, targets []tree.ID, pw sim.Power, fc sim.FaultConfig) (sim.Metrics, error) {
	if err := validate(p, arrival, targets); err != nil {
		return sim.Metrics{}, err
	}
	t := p.Tree()
	order := append([]tree.ID(nil), targets...)
	sort.Slice(order, func(i, j int) bool {
		wi, wj := t.Weight(order[i]), t.Weight(order[j])
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	var agg sim.Metrics
	at := arrival
	for i, id := range order {
		m, err := p.QueryFaulty(at, id, pw, fc)
		if err != nil {
			return agg, fmt.Errorf("retrieval: baseline leg %d: %w", i, err)
		}
		if i == 0 {
			agg.ProbeWait = m.ProbeWait
		}
		agg.AccessTime += m.AccessTime
		agg.TuningTime += m.TuningTime
		agg.Retries += m.Retries
		agg.Restarts += m.Restarts
		agg.Failovers += m.Failovers
		agg.Reconnects += m.Reconnects
		agg.Energy += m.Energy
		at += m.AccessTime
	}
	agg.DataWait = agg.AccessTime - agg.ProbeWait
	return agg, nil
}
