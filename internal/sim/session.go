package sim

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/pqueue"
	"repro/internal/tree"
)

// This file is the client protocol, written once: the point lookup, the
// range scan and batch execution, with all four recovery classes and the
// shared budget. It is the only code that reads a bucket for a query. A
// Session drives it over a Medium, which answers each wake-up; the
// analytic medium (air, in medium.go) derives the answer from a Timeline
// and a FaultConfig, and the netcast client answers it from a socket.
// Because both media feed the same engine, the tower and its analytic
// twin report byte-identical Metrics by construction; the cross-tests in
// internal/netcast check that the two media agree. A by-node query
// (Program.Query, the Evaluate family) is a point lookup of the target's
// key, which on an unkeyed tree is its leaf rank (keySpans); Evaluate
// memoises the lookup's probe and descent steps across queries.
//
// The protocol:
//
//   - probe: read the believed root channel — initially 1 (the program's
//     root channel for a by-node query), then whatever the RootChannel
//     stamp of the last bucket heard says — and unless the bucket opens a
//     descent (the root or a root copy), doze to the next cycle start, at
//     most MaxProbeRedirects times;
//   - descend (point) or scan (range) by the advertised key ranges, one
//     step per bucket: take the first child whose range covers the key;
//   - retry: a read that yields nothing usable re-requests the slot just
//     heard, whose next airing comes one cycle later (Metrics.Retries);
//   - restart: a bucket stamped with a newer epoch than the descent began
//     in means the program was hot-swapped; the client re-probes from the
//     next slot (Metrics.Restarts);
//   - failover: DeadAir consecutive unusable reads of one bucket declare
//     its channel dead; the client re-probes from the next slot, stepping
//     its root belief round-robin when the root channel itself died
//     (Metrics.Failovers). DeadAir 0 turns failover off, and range scans
//     never fail over;
//   - reconnect: when the station dies under the connection the client
//     re-dials under the seeded jittered backoff and re-probes from the
//     reconnect slot (Metrics.Reconnects).
//
// The four recovery counters share one budget: Retries + Restarts +
// Failovers + Reconnects ≤ MaxRetries, and exhausting it is terminal with
// fault.ErrRetryBudget. Metrics.charge is the only place they move.

// DefaultDeadAir is the consecutive-unusable-read threshold callers arm
// failover with when they have no reason to pick another: three reads
// separate a dead channel from an unlucky run on a merely lossy one at
// any drop rate the experiments model.
const DefaultDeadAir = 3

// MaxProbeRedirects bounds how many cycle-start jumps a probing client
// will chase before concluding the broadcast carries no reachable root.
const MaxProbeRedirects = 8

// maxAttemptReads bounds the buckets one descent or scan attempt reads
// before the client gives up with "did not terminate". A valid point
// descent reads one bucket per tree level and a valid scan each node of
// the range's subtree once, plus retries (bounded by the budget), so the
// bound only trips on a pointer cycle. It is a constant because the
// socket client knows neither the tree's size nor its cycle length.
const maxAttemptReads = 1 << 24

// Reception classifies a Medium's answer to one wake-up.
type Reception uint8

const (
	// Heard: a usable bucket arrived.
	Heard Reception = iota
	// Unusable: the radio woke at the served slot and heard nothing it
	// could use — a lost or corrupt frame, or dead air on a dark channel.
	Unusable
	// Dropped: the station died under the connection before the frame
	// arrived; no wake-up was spent.
	Dropped
)

// BucketKind is what a bucket carries.
type BucketKind uint8

// Bucket kinds, numbered as on the wire.
const (
	KindEmpty BucketKind = iota
	KindIndex
	KindData
)

// View is what a client learns from one bucket: the fields the wire
// format carries, so the engine reads the analytic medium and a socket
// alike.
type View struct {
	// Epoch is the program generation the bucket belongs to.
	Epoch uint32
	// Start marks the index root or a root copy: a descent may begin here.
	Start bool
	// RootChannel is the channel whose cycle starts carry the root of the
	// bucket's program.
	RootChannel int
	// NextCycle is the offset to the next cycle start.
	NextCycle int
	Kind      BucketKind
	// Node is the tree node the bucket holds when the medium knows it (the
	// analytic medium; tree.None there for an empty bucket). A medium that
	// does not know node IDs sets tree.None, which turns the node checks
	// off; the kind and label checks still apply.
	Node tree.ID
	// Key and Label identify a data bucket's item; a medium may leave
	// them stale on other kinds.
	Key   int64
	Label string
	// Pointers are an index bucket's child pointers.
	Pointers []Pointer
}

// Reply is a Medium's answer to one wake-up request.
type Reply struct {
	Status Reception
	// Slot is the absolute slot the request was served at — the requested
	// slot, or its next airing if that slot had already passed — for Heard
	// and Unusable, and the requested slot for Dropped (the base the
	// reconnect backoff counts from).
	Slot int
	// View is the bucket heard (Heard only).
	View View
	// Err, when set, ends the session with this error: a transport
	// failure the medium has no way to recover from.
	Err error
}

// Medium carries a session's wake-ups.
type Medium interface {
	// Hear tunes to channel ch for absolute slot slot, or for its next
	// airing if the slot has already passed for this radio. The reply is
	// the medium's and stays valid until its next Hear.
	Hear(ch, slot int) *Reply
	// Redial reconnects after a Dropped reply for a connection listening
	// from absolute slot slot, reporting whether the station answered.
	Redial(slot int) bool
}

// Recovery is one of the four recovery classes charged against the
// shared budget.
type Recovery uint8

// Recovery classes.
const (
	Retry Recovery = iota
	Restart
	Failover
	Reconnect
)

// recoveryNouns name what each class counts, for budget errors.
var recoveryNouns = [...]string{
	Retry:     "redundant wake-ups",
	Restart:   "descent restarts",
	Failover:  "channel failovers",
	Reconnect: "reconnect attempts",
}

// charge records one recovery of class r observed on channel ch at slot
// and fails with fault.ErrRetryBudget once the session has spent more
// than budget. It is the only code that moves a recovery counter.
func (m *Metrics) charge(r Recovery, budget, ch, slot int) error {
	var n int
	switch r {
	case Retry:
		m.Retries++
		n = m.Retries
	case Restart:
		m.Restarts++
		n = m.Restarts
	case Failover:
		m.Failovers++
		n = m.Failovers
	case Reconnect:
		m.Reconnects++
		n = m.Reconnects
	}
	if m.Retries+m.Restarts+m.Failovers+m.Reconnects > budget {
		return fmt.Errorf("sim: channel %d slot %d: %w after %d %s",
			ch, slot, fault.ErrRetryBudget, n-1, recoveryNouns[r])
	}
	return nil
}

// Session is a client's protocol state over a Medium. It runs one query
// at a time, and each query starts from nothing: no budget spent, root
// belief on channel 1 (on a by-node twin, the program's root channel).
type Session struct {
	Medium Medium
	// Env supplies the protocol's parameters: MaxRetries, DeadAir and
	// Backoff. Model, Outages and Downtimes describe the medium and are
	// the analytic medium's business.
	Env FaultConfig
	// Channels is the tower width, which failover needs to step the root
	// belief past a dead channel. Required when Env.DeadAir > 0.
	Channels int
	// Observe, when set, is told of every recovery as it is charged.
	Observe func(r Recovery, ch, slot int)

	m      Metrics
	rootCh int
	// root is the channel the root belief starts on; 0 means 1.
	root int
}

func (s *Session) charge(r Recovery, ch, slot int) error {
	if s.Observe != nil {
		s.Observe(r, ch, slot)
	}
	return s.m.charge(r, s.Env.budget(), ch, slot)
}

// read performs one bucket fetch on (ch, slot). An unusable reply burns
// the wake-up, charges a retry and re-requests the slot just heard; after
// deadAir consecutive unusable replies (deadAir > 0) read gives up and
// reports the channel dead. A Dropped reply is returned to the caller.
func (s *Session) read(md Medium, ch, slot, deadAir int) (r *Reply, dead bool, err error) {
	for run := 1; ; run++ {
		r = md.Hear(ch, slot)
		if r.Err != nil {
			return r, false, r.Err
		}
		if r.Status == Dropped {
			return r, false, nil
		}
		s.m.TuningTime++
		if r.Status == Heard {
			s.rootCh = r.View.RootChannel
			return r, false, nil
		}
		if err := s.charge(Retry, ch, r.Slot); err != nil {
			return r, false, err
		}
		if deadAir > 0 && run >= deadAir {
			return r, true, nil
		}
		slot = r.Slot
	}
}

// reconnect runs the backoff loop after a request for (ch, base) was
// dropped: each attempt charges a reconnect, advances the listen slot by
// the seeded jittered backoff and redials. It returns the slot the fresh
// connection listens from. The slot walk is a pure function of
// (Backoff.Seed, base), so both media replay it identically.
func (s *Session) reconnect(md Medium, ch, base int) (int, error) {
	w := base
	for attempt := 1; ; attempt++ {
		if err := s.charge(Reconnect, ch, w); err != nil {
			return 0, err
		}
		w += s.Env.Backoff.Delay(attempt)
		if md.Redial(w) {
			return w, nil
		}
	}
}

// fetch is read plus the recoveries that abandon the current attempt: a
// drop reconnects and dead air fails over. When again is set the attempt
// is over and the session re-probes from slot resume.
func (s *Session) fetch(ch, slot, deadAir int) (r *Reply, again bool, resume int, err error) {
	r, dead, err := s.read(s.Medium, ch, slot, deadAir)
	switch {
	case err != nil:
		return r, false, 0, err
	case r.Status == Dropped:
		resume, err = s.reconnect(s.Medium, ch, r.Slot)
		return r, true, resume, err
	case dead:
		if err := s.charge(Failover, ch, r.Slot); err != nil {
			return r, false, 0, err
		}
		// The root belief only moves when the root channel itself died.
		if ch == s.rootCh {
			s.rootCh = s.rootCh%s.Channels + 1
		}
		return r, true, r.Slot + 1, nil
	}
	return r, false, 0, nil
}

// probe reads the believed root channel at slot at and synchronizes on a
// bucket that opens a descent.
func (s *Session) probe(at, deadAir int) (r *Reply, again bool, resume int, err error) {
	r, again, resume, err = s.fetch(s.rootCh, at, deadAir)
	for redirects := 0; err == nil && !again && !r.View.Start; redirects++ {
		if redirects >= MaxProbeRedirects {
			return r, false, 0, fmt.Errorf("%w after %d redirects (got node %v)", ErrMissingRoot, redirects, r.View.Node)
		}
		r, again, resume, err = s.fetch(s.rootCh, r.Slot+max(r.View.NextCycle, 1), deadAir)
	}
	return r, again, resume, err
}

func (s *Session) begin(arrival int) error {
	s.m, s.rootCh = Metrics{}, max(s.root, 1)
	if arrival < 0 {
		return fmt.Errorf("sim: negative arrival %d", arrival)
	}
	return nil
}

// end completes the session's Metrics: a successful query gets its data
// wait and energy; a failed one returns what it had spent.
func (s *Session) end(start, last int, pw Power, err error) (Metrics, error) {
	if err == nil {
		s.m.DataWait = last - start + 1
		s.m.finish(pw)
	}
	return s.m, err
}

// Lookup retrieves the item with the given key, arriving at the given
// absolute slot. found is false when the descent ends without the key (a
// negative lookup); label is the data bucket's label when the descent
// reached one. ProbeWait covers everything before the start bucket of the
// descent that completed, so abandoned attempts surface as probe wait.
func (s *Session) Lookup(arrival int, key int64, pw Power) (found bool, label string, m Metrics, err error) {
	if err := s.begin(arrival); err != nil {
		return false, "", s.m, err
	}
	if s.Env.deadAir() > 0 && s.Channels < 1 {
		return false, "", s.m, fmt.Errorf("sim: DeadAir %d requires the channel count", s.Env.DeadAir)
	}
	var start, last int
	found, label, start, last, err = s.lookup(arrival, key)
	m, err = s.end(start, last, pw, err)
	return found, label, m, err
}

func (s *Session) lookup(arrival int, key int64) (found bool, label string, start, last int, err error) {
	deadAir := s.Env.deadAir()
	for probeAt := arrival; ; {
		r, again, resume, err := s.probe(probeAt, deadAir)
		if err == nil && !again {
			start = r.Slot
			s.m.ProbeWait = start - arrival
			r, again, resume, err = s.descend(r, key, deadAir)
		}
		if err != nil {
			return false, "", 0, 0, err
		}
		if again {
			probeAt = resume
			continue
		}
		if r.View.Kind != KindData {
			// Negative lookup: no child covers the key.
			return false, "", start, r.Slot, nil
		}
		return r.View.Key == key, r.View.Label, start, r.Slot, nil
	}
}

// descend steps toward key from r, the start bucket of an attempt, until
// a bucket ends the descent, and returns that bucket. again reports the
// attempt abandoned, to re-probe from resume.
func (s *Session) descend(r *Reply, key int64, deadAir int) (last *Reply, again bool, resume int, err error) {
	epoch := r.View.Epoch
	for reads := 0; reads < maxAttemptReads; reads++ {
		next, again, resume, err := s.step(r, epoch, key, deadAir)
		if next == nil || again || err != nil {
			return r, again, resume, err
		}
		r = next
	}
	return nil, false, 0, fmt.Errorf("sim: descent did not terminate")
}

// step takes one descent step toward key from r, a bucket heard in the
// attempt begun in epoch. next is nil when r ends the descent: a data
// bucket, or an index bucket no child of which covers key (a negative
// lookup). A bucket from a newer epoch means the program was swapped:
// the step charges a restart and the attempt is over.
func (s *Session) step(r *Reply, epoch uint32, key int64, deadAir int) (next *Reply, again bool, resume int, err error) {
	// The epoch stamp is checked before the bucket is interpreted: across
	// a swap the slot may hold anything.
	if r.View.Epoch != epoch {
		if err := s.charge(Restart, s.rootCh, r.Slot); err != nil {
			return nil, false, 0, err
		}
		return nil, true, r.Slot + 1, nil
	}
	j := route(&r.View, key)
	if j < 0 {
		return nil, false, 0, nil
	}
	// A bucket of the attempt's epoch must hold the pointer's target; one
	// from a newer epoch is left for the next step to restart on.
	ptr := r.View.Pointers[j]
	next, again, resume, err = s.fetch(ptr.Channel, r.Slot+ptr.Offset, deadAir)
	if err == nil && !again && next.View.Epoch == epoch && !holds(&next.View, ptr.Target) {
		return nil, false, 0, fmt.Errorf("%w: pointer to node %v found %v (kind %d) at channel %d slot %d",
			ErrBrokenPointer, ptr.Target, next.View.Node, next.View.Kind, ptr.Channel, next.Slot)
	}
	return next, again, resume, err
}

// route returns the index of v's first pointer whose key range covers
// key, or -1 when v is a data bucket or no child covers key.
func route(v *View, key int64) int {
	if v.Kind == KindData {
		return -1
	}
	for i := range v.Pointers {
		if key >= v.Pointers[i].KeyLo && key <= v.Pointers[i].KeyHi {
			return i
		}
	}
	return -1
}

// holds reports whether v can be the bucket a pointer to target promised:
// not empty, and the target itself when the medium knows node IDs.
func holds(v *View, target tree.ID) bool {
	return v.Kind != KindEmpty && (v.Node == tree.None || v.Node == target)
}

// pending is a scheduled frontier read of a range scan.
type pending struct {
	at      int // absolute slot
	channel int
	target  tree.ID
}

func pendingLess(a, b pending) bool { return a.at < b.at }

// LookupRange retrieves every item with a key in [lo, hi], in retrieval
// order. The client keeps a frontier of advertised pointers whose key
// ranges meet [lo, hi] and reads them in slot order; a slot that passed
// while the single receiver was busy elsewhere is caught at its next
// airing. An unusable frontier read is re-scheduled one cycle later. A
// newer epoch stamp or a station crash mid-scan invalidates the frontier:
// the client discards the partial key set and re-scans from the next
// probe. Range scans never fail over.
func (s *Session) LookupRange(arrival int, lo, hi int64, pw Power) (keys []int64, m Metrics, err error) {
	if err := s.begin(arrival); err != nil {
		return nil, s.m, err
	}
	if lo > hi {
		return nil, s.m, fmt.Errorf("sim: empty range [%d, %d]", lo, hi)
	}
	var start, last int
	keys, start, last, err = s.scan(arrival, lo, hi)
	m, err = s.end(start, last, pw, err)
	return keys, m, err
}

// frontier is a range scan's state: the scheduled reads and the keys
// retrieved so far.
type frontier struct {
	q      *pqueue.Queue[pending]
	keys   []int64
	lo, hi int64
}

// visit takes in the bucket v heard at slot at: a data bucket yields its
// key if it is in range, an index bucket schedules every child whose key
// range meets the range.
func (f *frontier) visit(at int, v *View) error {
	switch v.Kind {
	case KindEmpty:
		return fmt.Errorf("%w: range scan read an empty bucket at slot %d", ErrBrokenPointer, at)
	case KindData:
		if v.Key >= f.lo && v.Key <= f.hi {
			f.keys = append(f.keys, v.Key)
		}
		return nil
	}
	for _, c := range v.Pointers {
		if c.KeyLo <= f.hi && c.KeyHi >= f.lo {
			f.q.Push(pending{at: at + c.Offset, channel: c.Channel, target: c.Target})
		}
	}
	return nil
}

func (s *Session) scan(arrival int, lo, hi int64) (keys []int64, start, now int, err error) {
	// Room for a typical scan up front: a range holds at most hi-lo+1
	// keys, and the frontier rarely exceeds a few tree levels' fan-out.
	f := frontier{q: pqueue.New(pendingLess), keys: make([]int64, 0, min(uint64(hi-lo)+1, 64)), lo: lo, hi: hi}
	f.q.Reserve(8)
	probeAt := arrival
attempt:
	for {
		r, again, resume, err := s.probe(probeAt, 0)
		if err != nil {
			return f.keys, 0, 0, err
		}
		if again {
			probeAt = resume
			continue
		}
		epoch := r.View.Epoch
		start, now = r.Slot, r.Slot
		s.m.ProbeWait = start - arrival
		f.keys = f.keys[:0]
		for f.q.Len() > 0 {
			f.q.Pop()
		}
		if err := f.visit(now, &r.View); err != nil {
			return f.keys, 0, 0, err
		}
		for reads := 0; f.q.Len() > 0; reads++ {
			if reads >= maxAttemptReads {
				return f.keys, 0, 0, fmt.Errorf("sim: range scan did not terminate")
			}
			next := f.q.Pop()
			r = s.Medium.Hear(next.channel, next.at)
			if r.Err != nil {
				return f.keys, 0, 0, r.Err
			}
			if r.Status == Dropped {
				if probeAt, err = s.reconnect(s.Medium, next.channel, r.Slot); err != nil {
					return f.keys, 0, 0, err
				}
				continue attempt
			}
			s.m.TuningTime++
			now = r.Slot
			if r.Status == Unusable {
				if err := s.charge(Retry, next.channel, now); err != nil {
					return f.keys, 0, 0, err
				}
				next.at = now
				f.q.Push(next)
				continue
			}
			s.rootCh = r.View.RootChannel
			if r.View.Epoch != epoch {
				if err := s.charge(Restart, next.channel, now); err != nil {
					return f.keys, 0, 0, err
				}
				probeAt = now + 1
				continue attempt
			}
			if !holds(&r.View, next.target) {
				return f.keys, 0, 0, fmt.Errorf("%w: range pointer to node %v found %v (kind %d) at channel %d slot %d",
					ErrBrokenPointer, next.target, r.View.Node, r.View.Kind, next.channel, now)
			}
			if err := f.visit(now, &r.View); err != nil {
				return f.keys, 0, 0, err
			}
		}
		return f.keys, start, now, nil
	}
}

// ReadBatch executes a batch plan, reading each step on the radio of its
// antenna (radios[st.Antenna]). A slot that already passed on that radio
// is served at its next airing; unusable reads are retried one cycle
// later, and a dropped connection reconnects and re-requests the step.
// The epoch of the first read is pinned: a later read from another epoch
// charges a restart and fails with ErrStalePlan, because the plan's slots
// no longer describe the air. Metrics count the batch as one session:
// ProbeWait runs from arrival to the first item, DataWait from the first
// item to the last, and Conflicts/ExtraCycles are copied from the plan.
// On failure the partial Metrics are returned with the error.
func (s *Session) ReadBatch(plan *BatchPlan, pw Power, radios []Medium) (Metrics, error) {
	if plan == nil || len(plan.Steps) == 0 {
		return Metrics{}, fmt.Errorf("%w: no steps", ErrBadPlan)
	}
	if err := s.begin(plan.Arrival); err != nil {
		return s.m, err
	}
	s.m.Conflicts = plan.Conflicts
	s.m.ExtraCycles = plan.ExtraCycles
	first, last, err := s.batch(plan, radios)
	if err == nil {
		s.m.ProbeWait = first - plan.Arrival
	}
	return s.end(first, last, pw, err)
}

func (s *Session) batch(plan *BatchPlan, radios []Medium) (first, last int, err error) {
	var epoch uint32
	first, last = -1, -1
	for i := 0; i < len(plan.Steps); i++ {
		st := &plan.Steps[i]
		if st.Antenna < 0 || st.Antenna >= len(radios) {
			return 0, 0, fmt.Errorf("%w: antenna %d of %d radios", ErrBadPlan, st.Antenna, len(radios))
		}
		md := radios[st.Antenna]
		r, _, err := s.read(md, st.Channel, st.Slot, 0)
		if err != nil {
			return 0, 0, err
		}
		if r.Status == Dropped {
			// Re-request the in-flight step on the fresh connection: its
			// slot passed during the outage, and the medium serves the
			// next airing — the rule that absorbs ordinary cycle spill.
			if _, err := s.reconnect(md, st.Channel, r.Slot); err != nil {
				return 0, 0, err
			}
			i--
			continue
		}
		v := &r.View
		if i == 0 {
			epoch = v.Epoch
		} else if v.Epoch != epoch {
			if err := s.charge(Restart, st.Channel, r.Slot); err != nil {
				return 0, 0, err
			}
			return 0, 0, fmt.Errorf("sim: %w: epoch %d became %d at channel %d slot %d",
				ErrStalePlan, epoch, v.Epoch, st.Channel, r.Slot)
		}
		if v.Kind != KindData || v.Label != st.Label || (v.Node != tree.None && v.Node != st.Node) {
			return 0, 0, fmt.Errorf("%w: planned %q at channel %d slot %d, heard kind %d %q",
				ErrBrokenPointer, st.Label, st.Channel, r.Slot, v.Kind, v.Label)
		}
		if first < 0 || r.Slot < first {
			first = r.Slot
		}
		last = max(last, r.Slot)
	}
	return first, last, nil
}
