package sim

import (
	"slices"

	"repro/internal/tree"
)

// lossless reports whether no read under fc can come back lost or
// corrupt, so every query reads each bucket at its first airing.
func (fc FaultConfig) lossless() bool {
	return fc.Model.Drop <= 0 && fc.Model.Corrupt <= 0
}

// evaluator is Evaluate's factoring of a perfect-medium query on target d
// arriving at phase a:
//
//   - the probe and sync depend only on a, and fix the root-channel bucket
//     the descent starts from (the root or a root copy);
//   - the first hop depends only on that start bucket and the child that
//     covers d, and lands on that child's bucket;
//   - the rest of the descent, from the landing bucket down to d, depends
//     only on where it landed, so it is the same for every phase and start
//     that lands there.
//
// Each piece runs the per-query protocol code (probe, follow, descend), so
// it makes the same checks and fails with the same errors.
type evaluator struct {
	p      *Program
	phases []phaseStart // by arrival phase
	starts []startBucket
	// Per-target state, refilled by target. next and child hold the child
	// the descent rule picks from each rule-leading start bucket (see
	// startBucket.rule) and the index of its pointer.
	costs    []descentCost // by start bucket
	next     []tree.ID
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
	at int // 0-based cycle slot
	b  Bucket
	// rule is the first start bucket with the same node and child targets;
	// the descent rule picks the same child from both, so root copies cost
	// one rule check per target, not one each.
	rule int
	hops []firstHop // by child index, filled on first use
}

// firstHop is the read that follows one child pointer of a start bucket.
type firstHop struct {
	done   bool
	ch, at int // channel and slot of the read, counted from the start's cycle
	b      Bucket
	err    error
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

func newEvaluator(p *Program) *evaluator {
	ev := &evaluator{p: p, phases: make([]phaseStart, p.cycleLen)}
	startAt := make([]int, p.cycleLen)
	for i := range startAt {
		startAt[i] = -1
	}
	for a := range ev.phases {
		var m Metrics
		now, b, err := p.probe(&m, FaultConfig{}, a)
		ph := phaseStart{wait: m.ProbeWait, reads: m.TuningTime, err: err}
		if err == nil {
			at := now % p.cycleLen
			if startAt[at] < 0 {
				startAt[at] = len(ev.starts)
				rule := len(ev.starts)
				for k, st := range ev.starts {
					if st.rule == k && st.b.Node == b.Node && slices.EqualFunc(st.b.Children, b.Children,
						func(x, y Pointer) bool { return x.Target == y.Target }) {
						rule = k
						break
					}
				}
				ev.starts = append(ev.starts, startBucket{at: at, b: b, rule: rule, hops: make([]firstHop, len(b.Children))})
			}
			ph.start = startAt[at]
		}
		ev.phases[a] = ph
	}
	ev.costs = make([]descentCost, len(ev.starts))
	ev.next = make([]tree.ID, len(ev.starts))
	ev.child = make([]int, len(ev.starts))
	return ev
}

// target fills the descent cost of every start bucket for data node d.
func (ev *evaluator) target(d tree.ID) {
	p := ev.p
	step := p.toward(d)
	ev.suffixes = ev.suffixes[:0]
	for k := range ev.starts {
		st := &ev.starts[k]
		if st.rule == k {
			next, _ := step(st.b)
			ev.next[k], ev.child[k] = next, -1
			if next != tree.None {
				ev.child[k] = slices.IndexFunc(st.b.Children, func(c Pointer) bool { return c.Target == next })
			}
		}
		next, j := ev.next[st.rule], ev.child[st.rule]
		if next == tree.None {
			// The start bucket is the target, or a negative lookup.
			ev.costs[k] = descentCost{wait: 1}
			continue
		}
		h := &st.hops[j]
		if !h.done {
			var m Metrics
			h.b = st.b
			h.ch, h.at, h.err = p.follow(&m, FaultConfig{}, st.at, &h.b, next)
			h.done = true
		}
		if h.err != nil {
			ev.costs[k] = descentCost{err: h.err}
			continue
		}
		sf := ev.suffix(h, step)
		ev.costs[k] = descentCost{wait: h.at - st.at + sf.slots + 1, reads: 1 + sf.read, err: sf.err}
	}
}

// suffix returns the rest of the descent toward the current target from
// a first-hop landing, walking it on first use.
func (ev *evaluator) suffix(h *firstHop, step func(Bucket) (tree.ID, bool)) suffix {
	slot := h.at % ev.p.cycleLen
	for _, sf := range ev.suffixes {
		if sf.ch == h.ch && sf.slot == slot {
			return sf
		}
	}
	var m Metrics
	end, _, err := ev.p.descend(&m, FaultConfig{}, h.at, h.b, 1, step)
	sf := suffix{ch: h.ch, slot: slot, slots: end - h.at, read: m.TuningTime, err: err}
	ev.suffixes = append(ev.suffixes, sf)
	return sf
}

// query sets m to the metrics of the current target's query arriving at
// phase a — what Query would return. Only the fields a perfect medium
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
