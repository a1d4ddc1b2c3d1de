package sim

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/tree"
)

// air is the analytic Medium: it derives every reply from a Timeline and
// the medium half of a FaultConfig, exactly as the netcast tower and its
// fault injectors would serve it.
//
//   - A passed slot is served at its next airing: one cycle of whichever
//     epoch owns it, repeated until it reaches the radio's clock — the
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
	// one backs tl for a static program.
	one [1]Entry
	env *FaultConfig
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
	a.tune(p)
	return a
}

// tune points the radio at the static program p: the single-epoch
// timeline, without allocating one.
func (a *air) tune(p *Program) {
	a.one[0] = Entry{Prog: p}
	a.tl.entries = a.one[:]
}

// Hear implements Medium.
func (a *air) Hear(ch, slot int) *Reply {
	r := &a.reply
	served := slot
	for served < a.clock {
		served += a.tl.EntryAt(served).Prog.cycleLen
	}
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
		v.Key, _ = t.Key(b.Node)
		v.Label = t.Label(b.Node)
	default:
		v.Kind = KindIndex
	}
}

// twin is a keyed session over the analytic medium, allocated as one
// object and reusable query after query.
type twin struct {
	s Session
	a air
}

// twin starts keyed sessions on the timeline under env.
func (tl *Timeline) twin(env FaultConfig) (*twin, error) {
	w := &twin{}
	w.a.tl = *tl
	return w.open(env)
}

// twin starts keyed sessions on the static program p under env.
func (p *Program) twin(env FaultConfig) (*twin, error) {
	w := &twin{}
	w.a.tune(p)
	return w.open(env)
}

// open checks that every epoch carries a keyed tree and arms the session.
func (w *twin) open(env FaultConfig) (*twin, error) {
	for _, e := range w.a.tl.entries {
		if e.Prog.IsRestored() || !e.Prog.t.Keyed() {
			return nil, fmt.Errorf("sim: epoch %d tree is not keyed", e.Epoch)
		}
	}
	if err := env.Downtimes.Validate(); err != nil {
		return nil, err
	}
	w.s = Session{Medium: &w.a, Env: env, Channels: w.a.tl.entries[0].Prog.k}
	w.a.env = &w.s.Env
	return w, nil
}

// fresh readies the radio for a new session: nothing heard yet, on a
// connection that predates the broadcast.
func (w *twin) fresh() *Session {
	w.a.clock, w.a.born = 0, -1
	return &w.s
}

// lookup runs Session.Lookup on a fresh session.
func (w *twin) lookup(arrival int, key int64, pw Power) (Metrics, bool, error) {
	found, _, m, err := w.fresh().Lookup(arrival, key, pw)
	return m, found, err
}

// scan runs Session.LookupRange on a fresh session.
func (w *twin) scan(arrival int, lo, hi int64, pw Power) (RangeResult, error) {
	keys, m, err := w.fresh().LookupRange(arrival, lo, hi, pw)
	return RangeResult{Metrics: m, Keys: keys}, err
}
