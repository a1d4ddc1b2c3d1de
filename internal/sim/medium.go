package sim

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/tree"
)

// air is the analytic Medium: it derives every reply from a Timeline and
// the medium half of a FaultConfig, exactly as the netcast tower and its
// fault injectors would serve it.
//
//   - A passed slot is served at its next airing: History.CatchUp, the
//     catch-up the tower performs for a late request.
//   - A station crash between the connection's birth and the serve slot
//     (Downtimes.KillIn) drops the connection before the frame arrives.
//   - A dark channel (Outages.DarkAt) or a lost or corrupt frame
//     (Model.At) is unusable; a Stall only delays wall-clock delivery.
//   - Otherwise the radio hears the bucket on the air at the serve slot.
//
// A warm restart resumes the same program at a cycle boundary it already
// aired, so the broadcast is phase-continuous across a crash and a
// resumed session's slot arithmetic is an uninterrupted tower's; the
// checkpoint cadence moves only wall-clock recovery cost.
type air struct {
	tl Timeline
	// one and oneSpan back tl for a static program.
	one     [1]Entry
	oneSpan [1]Span
	env     *FaultConfig
	// clock is one past the last slot this radio was served: a request
	// below it has passed.
	clock int
	// born is the slot the current connection was made; a session's first
	// connection predates the broadcast (-1).
	born int
	// killed is the downtime window behind the last Dropped reply.
	killed fault.Downtime
	reply  Reply
}

// radio opens a radio on the static program p.
func (p *Program) radio(env *FaultConfig) *air {
	a := &air{env: env, born: -1}
	a.tl = a.tune(p)
	return a
}

// tune returns the single-epoch timeline of the static program p, backed
// by the radio's own storage so that it allocates nothing.
func (a *air) tune(p *Program) Timeline {
	a.one[0] = Entry{Prog: p}
	a.oneSpan[0] = Span{CycleLen: p.cycleLen}
	return Timeline{entries: a.one[:], spans: a.oneSpan[:]}
}

// Hear implements Medium.
func (a *air) Hear(ch, slot int) *Reply {
	r := &a.reply
	served := a.tl.spans.CatchUp(slot, a.clock)
	if win, ok := a.env.Downtimes.KillIn(a.born, served); ok {
		a.killed = win
		*r = Reply{Status: Dropped, Slot: slot}
		return r
	}
	a.clock = served + 1
	r.Status, r.Slot, r.Err = Unusable, served, nil
	if a.env.Outages.DarkAt(ch, served) {
		return r
	}
	if o := a.env.Model.At(ch, served); o == fault.Drop || o == fault.Corrupt {
		return r
	}
	e, cs := a.tl.CycleSlot(served)
	r.Status = Heard
	e.view(&r.View, &e.Prog.buckets[ch-1][cs-1])
	return r
}

// Redial implements Medium: the station answers once the window that
// killed the connection has ended and no other window covers the slot.
func (a *air) Redial(slot int) bool {
	if slot < a.killed.EndSlot || a.env.Downtimes.DownAt(slot) {
		return false
	}
	a.born, a.clock = slot, slot
	return true
}

// view fills v with what a client reads off bucket b of epoch e. It
// sets every field, field by field: Hear runs once per bucket read.
func (e Entry) view(v *View, b *Bucket) {
	t := e.Prog.t
	v.Epoch = e.Epoch
	v.Start = b.RootCopy || (b.Node != tree.None && b.Node == t.Root())
	v.RootChannel = e.Prog.RootChannel()
	v.NextCycle = b.NextCycle
	v.Node = b.Node
	v.Pointers = b.Children
	switch {
	case b.Node == tree.None:
		v.Kind = KindEmpty
	case t.IsData(b.Node):
		v.Kind = KindData
		v.Key = e.Prog.span[b.Node].lo
		v.Label = t.Label(b.Node)
	default:
		v.Kind = KindIndex
	}
}

// twin is a session over the analytic medium, allocated as one object
// and reusable query after query. The query entry points borrow one from
// twins for the call, so a point query allocates nothing; the Evaluate
// family runs on the one in its evaluator.
type twin struct {
	s Session
	a air
}

// twins recycles twins across calls and goroutines.
var twins = sync.Pool{New: func() any { return new(twin) }}

// open points the radio at tl and arms the session under env. A keyed
// session needs every epoch's tree keyed. A by-node session (byNode, on
// one static program) looks up a leaf rank on an unkeyed tree, and starts
// its root belief on the program's root channel.
func (w *twin) open(tl Timeline, env FaultConfig, byNode bool) error {
	w.a.tl = tl
	for _, e := range tl.entries {
		if e.Prog.IsRestored() || !(byNode || e.Prog.t.Keyed()) {
			return fmt.Errorf("sim: epoch %d tree is not keyed", e.Epoch)
		}
	}
	if err := env.Downtimes.Validate(); err != nil {
		return err
	}
	p := w.a.tl.entries[0].Prog
	s := &w.s
	s.Medium, s.Env, s.Channels, s.root = &w.a, env, p.k, 0
	if byNode {
		s.root = p.RootChannel()
	}
	w.a.env = &s.Env
	return nil
}

// fresh readies the twin for a session from nothing: no budget spent,
// the root belief where a query starts it, no slot before clock heard yet
// (a session picking up after a bucket heard at slot t passes t+1), on a
// connection that predates the broadcast.
func (w *twin) fresh(clock int) *Session {
	w.a.clock, w.a.born = clock, -1
	w.s.m, w.s.rootCh = Metrics{}, max(w.s.root, 1)
	return &w.s
}

// lookup runs Session.Lookup on a fresh session.
func (w *twin) lookup(arrival int, key int64, pw Power) (Metrics, bool, error) {
	found, _, m, err := w.fresh(0).Lookup(arrival, key, pw)
	return m, found, err
}

// find runs the by-node query on target on a fresh session: a lookup of
// the target's key that must end at the target.
func (w *twin) find(arrival int, target tree.ID, pw Power) (Metrics, error) {
	p := w.a.tl.entries[0].Prog
	m, found, err := w.lookup(arrival, p.span[target].lo, pw)
	if err == nil && !found {
		err = p.lost(target)
	}
	if err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// scan runs Session.LookupRange on a fresh session.
func (w *twin) scan(arrival int, lo, hi int64, pw Power) (RangeResult, error) {
	keys, m, err := w.fresh(0).LookupRange(arrival, lo, hi, pw)
	return RangeResult{Metrics: m, Keys: keys}, err
}
