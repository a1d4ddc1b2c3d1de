package sim

import (
	"slices"

	"repro/internal/tree"
)

// lossless reports whether no read under fc can come back unusable or
// dropped — no loss or corruption in the model, no outage and no station
// downtime — so every query reads each bucket at its first airing.
func (fc FaultConfig) lossless() bool {
	return fc.Model.Drop <= 0 && fc.Model.Corrupt <= 0 && !fc.Outages.Enabled() && !fc.Downtimes.Enabled()
}

// evaluator is Evaluate's factoring of a lossless by-node query on target
// d arriving at phase a:
//
//   - the probe and sync depend only on a, and fix the root-channel bucket
//     the descent starts from (the root or a root copy);
//   - the first hop depends only on that start bucket and the child that
//     covers d's key, and lands on that child's bucket;
//   - the rest of the descent, from the landing bucket down to d, depends
//     only on where it landed, so it is the same for every phase and start
//     that lands there.
//
// Each piece is the query's own Session steps (probe, step, descend) on
// the twin, so it makes the same checks and fails with the same sentinel
// errors.
type evaluator struct {
	w      twin // by-node sessions on p
	p      *Program
	phases []phaseStart // by arrival phase
	starts []startBucket
	// Per-target state, refilled by target. child holds the index of the
	// pointer each rule-leading start bucket (see startBucket.rule) routes
	// the target's key by, or -1.
	costs    []descentCost // by start bucket
	child    []int
	suffixes []suffix
}

// phaseStart is the probe and sync of one arrival phase.
type phaseStart struct {
	wait, reads int
	start       int // index into evaluator.starts
	err         error
}

// startBucket is a root-channel bucket some phase starts its descent from.
type startBucket struct {
	r Reply // as heard, at its 0-based cycle slot
	// rule is the first start bucket with the same node and child key
	// ranges; a key routes the same way from both, so root copies cost one
	// route per target, not one each.
	rule int
	hops []firstHop // by child index, filled on first use
}

// firstHop is the read that follows one child pointer of a start bucket.
type firstHop struct {
	done bool
	ch   int
	r    Reply // as heard, at its slot counted from the start's cycle
	err  error
}

// suffix is the rest of a descent from a first-hop landing bucket.
type suffix struct {
	ch, slot    int // landing channel and 0-based cycle slot
	slots, read int // slots after the landing read, and reads from it on
	err         error
}

// descentCost is a query's cost from its start bucket on: the data wait,
// and the reads after the start bucket.
type descentCost struct {
	wait, reads int
	err         error
}

// openEvaluator opens by-node sessions on p under fc. It is the Evaluate
// family's own twin: a whole evaluation runs on it.
func openEvaluator(p *Program, fc FaultConfig) (*evaluator, error) {
	ev := &evaluator{p: p}
	return ev, ev.w.open(ev.w.a.tune(p), fc, true)
}

// probe probes every arrival phase, on a lossless medium.
func (ev *evaluator) probe() {
	p, w := ev.p, &ev.w
	ev.phases = make([]phaseStart, p.cycleLen)
	startAt := make([]int, p.cycleLen)
	for i := range startAt {
		startAt[i] = -1
	}
	for a := range ev.phases {
		r, _, _, err := w.fresh(0).probe(a, 0)
		ph := phaseStart{reads: w.s.m.TuningTime, err: err}
		if err == nil {
			ph.wait = r.Slot - a
			at := r.Slot % p.cycleLen
			if startAt[at] < 0 {
				startAt[at] = len(ev.starts)
				rule := len(ev.starts)
				for k, st := range ev.starts {
					if st.rule == k && st.r.View.Node == r.View.Node && slices.EqualFunc(st.r.View.Pointers, r.View.Pointers,
						func(x, y Pointer) bool { return x.KeyLo == y.KeyLo && x.KeyHi == y.KeyHi }) {
						rule = k
						break
					}
				}
				st := startBucket{r: *r, rule: rule, hops: make([]firstHop, len(r.View.Pointers))}
				st.r.Slot = at
				ev.starts = append(ev.starts, st)
			}
			ph.start = startAt[at]
		}
		ev.phases[a] = ph
	}
	ev.costs = make([]descentCost, len(ev.starts))
	ev.child = make([]int, len(ev.starts))
}

// target fills the descent cost of every start bucket for data node d.
func (ev *evaluator) target(d tree.ID) {
	key := ev.p.span[d].lo
	ev.suffixes = ev.suffixes[:0]
	for k := range ev.starts {
		st := &ev.starts[k]
		if st.rule == k {
			ev.child[k] = route(&st.r.View, key)
		}
		j := ev.child[st.rule]
		if j < 0 {
			// The descent ends at the start bucket: the target itself, or a
			// bucket without the pointer toward it.
			ev.costs[k] = descentCost{wait: 1}
			if !reached(&st.r, key) {
				ev.costs[k].err = ev.p.lost(d)
			}
			continue
		}
		h := &st.hops[j]
		if !h.done {
			r, _, _, err := ev.w.fresh(st.r.Slot+1).step(&st.r, st.r.View.Epoch, key, 0)
			h.ch, h.err, h.done = st.r.View.Pointers[j].Channel, err, true
			if err == nil {
				h.r = *r
			}
		}
		if h.err != nil {
			ev.costs[k] = descentCost{err: h.err}
			continue
		}
		sf := ev.suffix(h, d, key)
		ev.costs[k] = descentCost{wait: h.r.Slot - st.r.Slot + sf.slots + 1, reads: 1 + sf.read, err: sf.err}
	}
}

// reached reports whether the descent toward key ending at r found it.
func reached(r *Reply, key int64) bool {
	return r.View.Kind == KindData && r.View.Key == key
}

// suffix returns the rest of the descent toward target d, whose key is
// key, from a first-hop landing, walking it on first use.
func (ev *evaluator) suffix(h *firstHop, d tree.ID, key int64) suffix {
	slot := h.r.Slot % ev.p.cycleLen
	for _, sf := range ev.suffixes {
		if sf.ch == h.ch && sf.slot == slot {
			return sf
		}
	}
	s := ev.w.fresh(h.r.Slot + 1)
	last, _, _, err := s.descend(&h.r, key, 0)
	sf := suffix{ch: h.ch, slot: slot, err: err}
	if err == nil {
		sf.slots, sf.read = last.Slot-h.r.Slot, s.m.TuningTime
		if !reached(last, key) {
			sf.err = ev.p.lost(d)
		}
	}
	ev.suffixes = append(ev.suffixes, sf)
	return sf
}

// query sets m to the metrics of the current target's query arriving at
// phase a — what Query would return. Only the fields a lossless medium
// charges are written; the caller keeps the rest zero.
func (ev *evaluator) query(m *Metrics, a int, pw Power) error {
	ph := &ev.phases[a]
	if ph.err != nil {
		return ph.err
	}
	c := &ev.costs[ph.start]
	if c.err != nil {
		return c.err
	}
	m.ProbeWait, m.DataWait, m.TuningTime = ph.wait, c.wait, ph.reads+c.reads
	m.finish(pw)
	return nil
}
