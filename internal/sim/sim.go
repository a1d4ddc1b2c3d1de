// Package sim is the wireless-broadcast substrate the paper assumes: a
// server cyclically transmits buckets over k channels, one bucket per slot
// per channel, and a mobile client retrieves data by tuning to a single
// channel at a time, following (channel, offset) pointers and dozing in
// between. It makes the paper's access-time/tuning-time story executable:
//
//   - probe wait: from arrival until the bucket containing the index root
//     (every bucket carries a pointer to the next cycle start, and the
//     client probes the root channel: 1 unless the program was remapped);
//   - data wait: from the cycle start until the requested data bucket —
//     whose weighted average over data nodes is exactly Formula 1;
//   - tuning time: the number of buckets actually read, which with the
//     paper's doze mode determines energy consumption.
//
// Compile turns any feasible Allocation into a Program of linked buckets.
// Every query — by node (Query, the Evaluate family) or by key (QueryKey,
// QueryRange, the Timeline queries, batches) — is a Session, the one
// client reader (session.go), over the analytic medium (medium.go). A
// by-node query looks up the target's key; on an unkeyed tree Compile
// keys each data node by its leaf rank. The optional root replication
// (Options.FillWithRootCopies) implements the paper's future-work
// direction of replicating index nodes to cut the initial probe, reusing
// otherwise-empty slots.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/fault"
	"repro/internal/tree"
)

// Sentinel corruption errors. Query and its range/adaptive variants wrap
// these with %w so callers can classify a failure with errors.Is instead
// of matching the position/label detail in the message text.
var (
	// ErrMissingRoot reports a cycle start whose root-channel slot carries
	// neither the index root nor a root copy.
	ErrMissingRoot = errors.New("sim: cycle start does not hold the root")

	// ErrBrokenPointer reports an index pointer whose target slot holds a
	// different node than the pointer promised (or a bucket missing the
	// pointer the descent needs).
	ErrBrokenPointer = errors.New("sim: broken index pointer")
)

// Pointer addresses a future bucket relative to the current slot.
type Pointer struct {
	Channel int // 1-based target channel
	Offset  int // slots ahead of the current slot (> 0)
	Target  tree.ID
	// KeyLo and KeyHi are the target subtree's key range, what a client
	// routes a lookup by: the tree's keys on a keyed tree, the leaf ranks
	// of the subtree's data nodes otherwise (see keySpans).
	KeyLo, KeyHi int64
}

// pointerTo builds the pointer to child c at the given offset.
func (p *Program) pointerTo(ch, off int, c tree.ID) Pointer {
	return Pointer{Channel: ch, Offset: off, Target: c, KeyLo: p.span[c].lo, KeyHi: p.span[c].hi}
}

// keySpan is the [lo, hi] key range a node's subtree covers.
type keySpan struct{ lo, hi int64 }

// keySpans returns every node's key range. A keyed tree carries its own.
// Any index tree is alphabetic in the preorder of its leaves, so on an
// unkeyed tree the leaf rank is a search key: a data node's key is its
// rank among the data nodes in preorder, and a subtree covers the ranks
// of its leaves, from its first child's to its last child's.
func keySpans(t *tree.Tree) []keySpan {
	spans := make([]keySpan, t.NumNodes())
	pre, rank := t.Preorder(), int64(t.NumData())
	for i := len(pre) - 1; i >= 0; i-- {
		id, kids := pre[i], t.Children(pre[i])
		switch {
		case t.Keyed():
			spans[id].lo, spans[id].hi, _ = t.KeyRange(id)
		case len(kids) > 0:
			spans[id] = keySpan{spans[kids[0]].lo, spans[kids[len(kids)-1]].hi}
		default: // a data node, reached in reverse rank order
			rank--
			spans[id] = keySpan{rank, rank}
		}
	}
	return spans
}

// Bucket is one transmitted unit. Empty filler buckets have Node == tree.None.
type Bucket struct {
	Node tree.ID
	// Children points at the node's children (index buckets only).
	Children []Pointer
	// NextCycle is the offset to the first slot of the next cycle; set on
	// every bucket of every channel so any arriving client — including one
	// redirected off a dead channel — can synchronize from wherever it is.
	NextCycle int
	// RootCopy marks a replicated root bucket occupying a filler slot.
	RootCopy bool
}

// Options configures program compilation.
type Options struct {
	// FillWithRootCopies replicates the index root into every empty
	// channel-1 slot, letting clients that tune in mid-cycle begin their
	// descent immediately (pointers wrap into the next cycle as needed).
	FillWithRootCopies bool
}

// Program is a compiled cyclic broadcast.
type Program struct {
	t        *tree.Tree
	k        int
	cycleLen int
	buckets  [][]Bucket // [channel-1][slot-1]
	slotOf   []alloc.Position
	// span is every node's key range (keySpans): a data node's lookup key
	// is its lo.
	span []keySpan
	// rootCh is the channel whose cycle starts carry the index root: 1 for
	// a directly compiled program, the first surviving channel for a
	// program remapped onto a degraded tower (see Remap).
	rootCh int
}

// Tree returns the index tree the program broadcasts.
func (p *Program) Tree() *tree.Tree { return p.t }

// Channels returns the channel count.
func (p *Program) Channels() int { return p.k }

// RootChannel returns the channel whose cycle starts hold the index root
// — channel 1 except for programs remapped onto a degraded channel set.
func (p *Program) RootChannel() int {
	if p.rootCh == 0 {
		return 1
	}
	return p.rootCh
}

// CycleLen returns the broadcast cycle length in slots.
func (p *Program) CycleLen() int { return p.cycleLen }

// BucketAt returns the bucket transmitted on channel ch at cycle slot s
// (both 1-based).
func (p *Program) BucketAt(ch, s int) Bucket { return p.buckets[ch-1][s-1] }

// Position returns the (channel, cycle slot) the allocation assigned to
// node id — the airing a batch retrieval planner schedules around. Root
// copies are not reflected: the returned position is the node's primary
// slot. On a remapped program dark-channel nodes report their remapped
// physical position.
func (p *Program) Position(id tree.ID) alloc.Position { return p.slotOf[id] }

// Compile links an allocation into a broadcast program.
func Compile(a *alloc.Allocation, opt Options) (*Program, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	t := a.Tree()
	if rp := a.Pos(t.Root()); rp.Channel != 1 || rp.Slot != 1 {
		// The client protocol requires the cycle to open with the root on
		// the first channel (Section 2.1 of the paper).
		return nil, fmt.Errorf("sim: root must be at channel 1 slot 1, got channel %d slot %d",
			rp.Channel, rp.Slot)
	}
	p := &Program{
		t:        t,
		k:        a.Channels(),
		cycleLen: a.NumSlots(),
		slotOf:   make([]alloc.Position, t.NumNodes()),
		span:     keySpans(t),
		rootCh:   1,
	}
	// Size one pointer arena for every bucket's Children: the tree's
	// edges, plus a copy of the root's for each channel-1 slot a root
	// copy will fill.
	edges := t.NumNodes() - 1 // every node but the root has one parent
	copies := opt.FillWithRootCopies && t.NumNodes() > 1
	if copies {
		empty := p.cycleLen
		for i := 0; i < t.NumNodes(); i++ {
			if a.Pos(tree.ID(i)).Channel == 1 {
				empty--
			}
		}
		edges += empty * len(t.Children(t.Root()))
	}
	arena := make([]Pointer, 0, edges)
	// Every bucket on every channel advertises the next cycle start, so a
	// client that lost its channel mid-descent can resynchronize from any
	// surviving channel instead of only from channel 1.
	flat := make([]Bucket, p.k*p.cycleLen)
	p.buckets = make([][]Bucket, p.k)
	for ch := range p.buckets {
		p.buckets[ch] = flat[ch*p.cycleLen : (ch+1)*p.cycleLen : (ch+1)*p.cycleLen]
		for s := range p.buckets[ch] {
			p.buckets[ch][s] = Bucket{Node: tree.None, NextCycle: p.cycleLen - s}
		}
	}
	for i := 0; i < t.NumNodes(); i++ {
		id := tree.ID(i)
		pos := a.Pos(id)
		p.slotOf[id] = pos
		b := &p.buckets[pos.Channel-1][pos.Slot-1]
		b.Node = id
		b.Children, arena = p.pointers(arena, a, id, pos.Slot)
	}
	if copies {
		p.fillRootCopies(a, arena)
	}
	return p, nil
}

// pointers appends the pointers from node id, aired at slot s, to its
// children onto arena. It returns them as a full slice expression of
// arena (nil for a leaf), so an append to one bucket's Children cannot
// overwrite the next bucket's, and the extended arena. Offsets to slots
// at or before s wrap into the next cycle; only a root copy has such
// children, since a valid allocation airs every child after its parent.
func (p *Program) pointers(arena []Pointer, a *alloc.Allocation, id tree.ID, s int) ([]Pointer, []Pointer) {
	kids := p.t.Children(id)
	if len(kids) == 0 {
		return nil, arena
	}
	start := len(arena)
	for _, c := range kids {
		cp := a.Pos(c)
		off := cp.Slot - s
		if off <= 0 {
			off += p.cycleLen
		}
		arena = append(arena, p.pointerTo(cp.Channel, off, c))
	}
	return arena[start:len(arena):len(arena)], arena
}

// fillRootCopies writes a replica of the root into every empty channel-1
// slot, with child offsets wrapping into the next cycle when the child's
// slot has already passed. The copies' pointers are cut from arena.
func (p *Program) fillRootCopies(a *alloc.Allocation, arena []Pointer) {
	root := p.t.Root()
	for s := 1; s <= p.cycleLen; s++ {
		b := &p.buckets[0][s-1]
		if b.Node != tree.None {
			continue
		}
		b.Node, b.RootCopy = root, true
		b.Children, arena = p.pointers(arena, a, root, s)
	}
}

// Power is the per-slot energy model: Active while reading a bucket, Doze
// while waiting with the receiver off.
type Power struct {
	Active, Doze float64
}

// Metrics reports one query's cost, all in slots except Energy.
type Metrics struct {
	// ProbeWait is the time from arrival until the slot holding the root
	// bucket the descent started from begins.
	ProbeWait int
	// DataWait is the time from that root bucket's slot to the end of the
	// slot carrying the requested data.
	DataWait int
	// AccessTime = ProbeWait + DataWait: arrival to data in hand.
	AccessTime int
	// TuningTime is the number of buckets read (receiver active),
	// including redundant wake-ups that yielded a lost or corrupt frame.
	TuningTime int
	// Retries counts redundant wake-ups on a lossy channel: reads that
	// returned nothing usable, each answered by re-tuning to the same
	// (channel, slot) in the next broadcast cycle. Zero on a perfect
	// medium.
	Retries int
	// Restarts counts descents abandoned because the broadcast program was
	// hot-swapped mid-traversal: the client observed a bucket from a newer
	// epoch, discarded its cached pointers and restarted from the new root.
	// Restarts share the retry budget with Retries, Failovers and
	// Reconnects. Zero on a static broadcast.
	Restarts int
	// Failovers counts channel failovers: descents abandoned because the
	// client declared the channel it was reading dead (DeadAir consecutive
	// unusable reads) and re-tuned via a surviving channel. Failovers share
	// the retry budget with Retries, Restarts and Reconnects. Zero
	// unless the query ran under an outage schedule.
	Failovers int
	// Reconnects counts re-dial attempts after the station itself crashed
	// and severed the connection: each backoff step that redials (successfully
	// or not) counts one. Reconnects share the retry budget
	// (Retries + Restarts + Failovers + Reconnects ≤ MaxRetries). Zero
	// unless the query ran under a downtime schedule.
	Reconnects int
	// Conflicts counts batch targets that could not be read at their first
	// airing after arrival because the single tuner was busy on another
	// channel — two wanted nodes overlapped on the air — forcing a wait
	// for a later cycle. Copied from the executed BatchPlan; zero on
	// single-key queries.
	Conflicts int
	// ExtraCycles is the total number of whole broadcast cycles lost to
	// those conflicts (a target pushed j cycles past its first airing
	// contributes j). Zero on single-key queries.
	ExtraCycles int
	// Energy = Active·TuningTime + Doze·(AccessTime − TuningTime).
	Energy float64
}

// DefaultMaxRetries is the per-query retry budget when FaultConfig does
// not set one. It bounds how many lost cycles a client will chase before
// giving up with fault.ErrRetryBudget.
const DefaultMaxRetries = 32

// FaultConfig is the environment a query runs in: the medium's faults
// and the client's recovery parameters. The zero FaultConfig is a
// perfect, static medium with failover off. Every entry point that takes
// one (QueryFaulty, QuerySwitch, QueryRangeSwitch, QueryBatch and the
// Evaluate family) honors every field.
type FaultConfig struct {
	// Model is the seeded per-slot fault distribution; the zero Model is
	// a perfect channel. A lost or corrupt read is retried at the same
	// cycle slot one full cycle later.
	Model fault.Model
	// MaxRetries bounds Retries+Restarts+Failovers+Reconnects per query
	// (0 = DefaultMaxRetries).
	MaxRetries int
	// Outages darkens whole channels for windows of absolute slots: a
	// dark slot is dead air whatever Model says.
	Outages fault.Outages
	// Downtimes is the station crash schedule: the station dies at each
	// window's StartSlot and accepts connections again from EndSlot on.
	// A session's first connection predates the broadcast.
	Downtimes fault.Downtimes
	// Backoff is the seeded reconnect backoff schedule, shared with the
	// socket client.
	Backoff fault.Backoff
	// DeadAir arms channel failover: after DeadAir consecutive unusable
	// reads of one bucket the client declares the channel dead. 0 turns
	// failover off; DefaultDeadAir is the usual setting.
	DeadAir int
}

func (fc FaultConfig) budget() int {
	if fc.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return fc.MaxRetries
}

func (fc FaultConfig) deadAir() int { return max(fc.DeadAir, 0) }

func (m *Metrics) finish(pw Power) {
	m.AccessTime = m.ProbeWait + m.DataWait
	doze := m.AccessTime - m.TuningTime
	if doze < 0 {
		doze = 0
	}
	m.Energy = pw.Active*float64(m.TuningTime) + pw.Doze*float64(doze)
}

// slotInCycle maps a global 0-based time to a 1-based cycle slot.
func (p *Program) slotInCycle(t int) int { return t%p.cycleLen + 1 }

// Query retrieves the data node target, arriving at the beginning of
// global slot arrival (any non-negative integer; the cycle phase is
// arrival mod CycleLen). It uses only bucket pointers — never the tree
// structure directly — so it exercises the compiled program end to end.
func (p *Program) Query(arrival int, target tree.ID, pw Power) (Metrics, error) {
	return p.QueryFaulty(arrival, target, pw, FaultConfig{})
}

// QueryFaulty is Query under fc: the keyed protocol of Session.Lookup on
// the target's key (its leaf rank on an unkeyed tree), with the root
// belief starting on the program's root channel. Every read draws from
// the environment, lost or corrupt reads are retried on the next cycle,
// and the returned Metrics include the redundant wake-ups. It fails with
// an error wrapping fault.ErrRetryBudget when the budget runs out, and
// with ErrBrokenPointer when the descent ends without the target.
func (p *Program) QueryFaulty(arrival int, target tree.ID, pw Power, fc FaultConfig) (Metrics, error) {
	if !p.t.IsData(target) {
		return Metrics{}, fmt.Errorf("sim: target %s is not a data node", p.t.Label(target))
	}
	w := twins.Get().(*twin)
	defer twins.Put(w)
	if err := w.open(w.a.tune(p), fc, true); err != nil {
		return Metrics{}, err
	}
	return w.find(arrival, target, pw)
}

// QueryKey retrieves the data item with the given key on a keyed tree.
// found is false when no item carries the key; the client still pays the
// descent to the deepest enclosing range (a negative lookup). It is the
// keyed protocol (Session.Lookup) on a perfect medium; run
// Timeline.QuerySwitch on NewTimeline(p, 0) for any other environment.
func (p *Program) QueryKey(arrival int, key int64, pw Power) (Metrics, bool, error) {
	w := twins.Get().(*twin)
	defer twins.Put(w)
	if err := w.open(w.a.tune(p), FaultConfig{}, false); err != nil {
		return Metrics{}, false, err
	}
	return w.lookup(arrival, key, pw)
}

// lost is the error of a by-node descent that ended without its target:
// a bucket on the way lacked the pointer toward it.
func (p *Program) lost(target tree.ID) error {
	return fmt.Errorf("%w: no pointer toward %s", ErrBrokenPointer, p.t.Label(target))
}

// Summary aggregates weighted-average metrics over arrivals and targets.
type Summary struct {
	ProbeWait, DataWait, AccessTime, TuningTime, Energy float64
	// Retries is the expected number of redundant wake-ups per query
	// (zero on a perfect medium).
	Retries float64
	// Restarts is the expected number of epoch-swap descent restarts per
	// query (zero on a static broadcast).
	Restarts float64
	// Failovers is the expected number of channel failovers per query
	// (zero unless evaluated under an outage schedule).
	Failovers float64
	// Reconnects is the expected number of station re-dial attempts per
	// query (zero unless evaluated under a downtime schedule).
	Reconnects float64
	// Conflicts is the expected number of batch retrieval conflicts per
	// query — wanted nodes overlapping on the air (zero for single-key
	// workloads).
	Conflicts float64
	// ExtraCycles is the expected number of whole cycles lost to those
	// conflicts per query (zero for single-key workloads).
	ExtraCycles float64
}

// Evaluate computes the exact expected metrics of the program: a query
// arrives uniformly at every cycle phase and requests data node D with
// probability W(D)/ΣW. All averages are exact sums, not samples. It costs
// O(Σ depth + root copies × fanout) pointer reads plus O(n·L) integer
// work for n data nodes and cycle length L (see EvaluateFaulty), and is
// bit-identical to averaging Query over every (target, phase).
func Evaluate(p *Program, pw Power) (Summary, error) {
	return EvaluateFaulty(p, pw, FaultConfig{})
}

// EvaluateFaulty is Evaluate under fc: the same weighted average, with
// every query paying the deterministic per-slot losses of fc.Model, the
// outages and the station downtimes. Averaging over several model seeds
// approximates the expectation over channel noise.
//
// When no read can be lost (fc.Model.Drop and Corrupt are 0, and there
// are no outages or downtimes; stalls never move the slot clock) each
// query factors into a phase start, a first hop and a per-target suffix
// that are computed once by Session steps and reused, so the loop over
// (target, phase) only adds integers. The result is bit-identical to
// averaging QueryFaulty over every (target, phase) in catalog order, and
// a corrupted program fails with the sentinel error the first failing
// query fails with. A lossy environment decides every read by its
// absolute slot, so no two queries share a cost; it runs QueryFaulty's
// session per (target, phase).
func EvaluateFaulty(p *Program, pw Power, fc FaultConfig) (Summary, error) {
	var s Summary
	total := p.t.TotalWeight()
	if total == 0 {
		return s, fmt.Errorf("sim: zero total weight")
	}
	ev, err := openEvaluator(p, fc)
	if err != nil {
		return s, err
	}
	phases := float64(p.cycleLen)
	if !fc.lossless() {
		for _, d := range p.t.DataIDs() {
			w := p.t.Weight(d) / total
			for a := 0; a < p.cycleLen; a++ {
				m, err := ev.w.find(a, d, pw)
				if err != nil {
					return s, err
				}
				s.ProbeWait += w * float64(m.ProbeWait) / phases
				s.DataWait += w * float64(m.DataWait) / phases
				s.AccessTime += w * float64(m.AccessTime) / phases
				s.TuningTime += w * float64(m.TuningTime) / phases
				s.Retries += w * float64(m.Retries) / phases
				s.Restarts += w * float64(m.Restarts) / phases
				s.Failovers += w * float64(m.Failovers) / phases
				s.Reconnects += w * float64(m.Reconnects) / phases
				s.Energy += w * m.Energy / phases
			}
		}
		return s, nil
	}
	// Retries, Restarts, Failovers and Reconnects are zero on every query
	// here, so their sums stay +0 as in the per-query loop.
	ev.probe()
	var m Metrics
	for _, d := range p.t.DataIDs() {
		w := p.t.Weight(d) / total
		ev.target(d)
		for a := 0; a < p.cycleLen; a++ {
			if err := ev.query(&m, a, pw); err != nil {
				return s, err
			}
			s.ProbeWait += w * float64(m.ProbeWait) / phases
			s.DataWait += w * float64(m.DataWait) / phases
			s.AccessTime += w * float64(m.AccessTime) / phases
			s.TuningTime += w * float64(m.TuningTime) / phases
			s.Energy += w * m.Energy / phases
		}
	}
	return s, nil
}

// ItemMetrics is one data item's exact expected client cost.
type ItemMetrics struct {
	Label                                    string
	Key                                      int64
	Weight                                   float64
	DataWait, AccessTime, TuningTime, Energy float64
}

// EvaluatePerItem computes each data item's exact expected metrics over a
// uniform arrival phase — the operator's view of which items suffer the
// worst latency under the current allocation. Items are returned in
// catalog (preorder) order. It uses Evaluate's factoring and is
// bit-identical to averaging Query over every phase.
func EvaluatePerItem(p *Program, pw Power) ([]ItemMetrics, error) {
	ev, err := openEvaluator(p, FaultConfig{})
	if err != nil {
		return nil, err
	}
	ev.probe()
	phases := float64(p.cycleLen)
	out := make([]ItemMetrics, 0, p.t.NumData())
	var m Metrics
	for _, d := range p.t.DataIDs() {
		im := ItemMetrics{Label: p.t.Label(d), Weight: p.t.Weight(d)}
		if k, ok := p.t.Key(d); ok {
			im.Key = k
		}
		ev.target(d)
		for a := 0; a < p.cycleLen; a++ {
			if err := ev.query(&m, a, pw); err != nil {
				return nil, err
			}
			im.DataWait += float64(m.DataWait) / phases
			im.AccessTime += float64(m.AccessTime) / phases
			im.TuningTime += float64(m.TuningTime) / phases
			im.Energy += m.Energy / phases
		}
		out = append(out, im)
	}
	return out, nil
}
