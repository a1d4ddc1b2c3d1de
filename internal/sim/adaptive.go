package sim

import "fmt"

// This file is the analytic twin of an adaptive broadcast tower: a
// Timeline concatenates epoch-versioned programs along the absolute slot
// axis, with each swap landing exactly at a cycle boundary of the
// outgoing epoch (the same invariant the netcast server enforces), and
// QuerySwitch/QueryRangeSwitch run the client session engine
// (session.go) over it.

// Entry is one epoch of a broadcast timeline: the program that is on the
// air from absolute slot Start until the next entry's Start.
type Entry struct {
	// Epoch is the program generation stamped into every bucket on the
	// wire. Monotonically increasing along the timeline.
	Epoch uint32
	// Prog is the compiled program broadcast during this epoch.
	Prog *Program
	// Start is the absolute slot at which this epoch takes the air; it is
	// always a cycle boundary of the preceding epoch.
	Start int
}

// Timeline is a broadcast schedule over absolute time: a sequence of
// epochs, each serving its program cyclically until the next swap.
// spans[i] is entries[i]'s tenure: the history the tower keeps, here
// never compacted.
type Timeline struct {
	entries []Entry
	spans   History
}

// NewTimeline starts a timeline broadcasting p as the given epoch from
// absolute slot 0.
func NewTimeline(p *Program, epoch uint32) (*Timeline, error) {
	if p == nil {
		return nil, fmt.Errorf("sim: nil program")
	}
	return &Timeline{
		entries: []Entry{{Epoch: epoch, Prog: p, Start: 0}},
		spans:   History{{Start: 0, CycleLen: p.cycleLen}},
	}, nil
}

// Append stages the next epoch: p takes the air at the first cycle
// boundary of the current last epoch at or after absolute slot notBefore
// (the slot at which the rebuilt program became available). It returns
// the swap slot. The channel count must not change across epochs — the
// client's tuner has no way to learn of new channels mid-flight — and
// epochs must strictly increase.
func (tl *Timeline) Append(p *Program, epoch uint32, notBefore int) (int, error) {
	last := &tl.entries[len(tl.entries)-1]
	if p == nil {
		return 0, fmt.Errorf("sim: nil program")
	}
	if p.Channels() != last.Prog.Channels() {
		return 0, fmt.Errorf("sim: epoch %d has %d channels, timeline has %d",
			epoch, p.Channels(), last.Prog.Channels())
	}
	if epoch <= last.Epoch {
		return 0, fmt.Errorf("sim: epoch %d does not advance %d", epoch, last.Epoch)
	}
	if notBefore <= last.Start {
		return 0, fmt.Errorf("sim: epoch %d staged at slot %d before its predecessor aired (start %d)",
			epoch, notBefore, last.Start)
	}
	start := tl.spans.Boundary(notBefore)
	tl.entries = append(tl.entries, Entry{Epoch: epoch, Prog: p, Start: start})
	tl.spans = append(tl.spans, Span{Start: start, CycleLen: p.cycleLen})
	return start, nil
}

// Stage puts p on the timeline the way a tower stages it on its epoch
// registry at slot at: a staged epoch whose swap slot is at or after at
// has not aired yet, so p replaces it (the registry keeps at most one
// pending epoch) and lands at the boundary of the program still on the
// air. Otherwise Stage is Append. It returns the swap slot.
func (tl *Timeline) Stage(p *Program, epoch uint32, at int) (int, error) {
	if n := len(tl.entries); n > 1 && at <= tl.entries[n-1].Start {
		tl.entries, tl.spans = tl.entries[:n-1], tl.spans[:n-1]
	}
	return tl.Append(p, epoch, at)
}

// Entries returns the timeline's epochs in air order.
func (tl *Timeline) Entries() []Entry { return tl.entries }

// EntryAt returns the epoch on the air at absolute slot t.
func (tl *Timeline) EntryAt(t int) Entry {
	return tl.entries[tl.spans.At(t)]
}

// CycleSlot maps absolute slot t to the on-air epoch and its 1-based
// cycle slot.
func (tl *Timeline) CycleSlot(t int) (Entry, int) {
	i := tl.spans.At(t)
	sp := tl.spans[i]
	return tl.entries[i], (t-sp.Start)%sp.CycleLen + 1
}

// QuerySwitch retrieves the data item with the given key from the
// timeline, arriving at the given absolute slot, under env: the keyed
// protocol of Session.Lookup over the analytic medium. A descent that
// reads a bucket from a newer epoch than the one it started in has stale
// pointers: the client charges a restart against the retry budget and
// probes again from the next slot. The returned found is false when the
// key is absent from the tree the descent completed in. ProbeWait covers
// everything before the start bucket of the descent that completed, so
// restarted work surfaces as probe wait — the client-visible
// reallocation cost. On failure the partial Metrics are returned.
func (tl *Timeline) QuerySwitch(arrival int, key int64, pw Power, env FaultConfig) (Metrics, bool, error) {
	w := twins.Get().(*twin)
	defer twins.Put(w)
	if err := w.open(*tl, env, false); err != nil {
		return Metrics{}, false, err
	}
	return w.lookup(arrival, key, pw)
}

// QueryRangeSwitch retrieves every data item with a key in [lo, hi]
// from the timeline under env: the frontier protocol of
// Session.LookupRange over the analytic medium. A swap or a station
// crash observed mid-scan invalidates the whole frontier, so the client
// discards the partial result set and re-scans from the next probe.
func (tl *Timeline) QueryRangeSwitch(arrival int, lo, hi int64, pw Power, env FaultConfig) (RangeResult, error) {
	w := twins.Get().(*twin)
	defer twins.Put(w)
	if err := w.open(*tl, env, false); err != nil {
		return RangeResult{}, err
	}
	return w.scan(arrival, lo, hi, pw)
}

// Demand is one key's request weight in an adaptive evaluation.
type Demand struct {
	Key    int64
	Weight float64
}

// EvaluateAdaptive computes the expected client cost of the timeline
// over the arrival window [lo, hi): a query arrives uniformly at every
// slot in the window and requests each demanded key with probability
// proportional to its weight. It returns the weighted-average Summary
// and the hit rate — the weighted fraction of lookups that found their
// key, which drops below 1 exactly when the on-air program is stale
// against the demand. All averages are exact sums, not samples.
func EvaluateAdaptive(tl *Timeline, lo, hi int, demand []Demand, pw Power, fc FaultConfig) (Summary, float64, error) {
	var s Summary
	var hits float64
	phases := float64(hi - lo)
	err := eachLookup(tl, lo, hi, demand, pw, fc, func(w float64, m Metrics, found bool, err error) error {
		if err != nil {
			return err
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
		if found {
			hits += w / phases
		}
		return nil
	})
	if err != nil {
		return s, 0, err
	}
	return s, hits, nil
}

// eachLookup is the arrival window loop of EvaluateAdaptive and
// EvaluateReport. It validates the window [lo, hi) and the demand, then
// looks up every demanded key at every arrival in the window on one
// twin of the timeline under env, and hands visit the key's share of
// the demand with the outcome. An error from visit ends the loop,
// tagged with the key and arrival.
func eachLookup(tl *Timeline, lo, hi int, demand []Demand, pw Power, env FaultConfig, visit func(w float64, m Metrics, found bool, err error) error) error {
	if lo < 0 || hi <= lo {
		return fmt.Errorf("sim: bad arrival window [%d, %d)", lo, hi)
	}
	var total float64
	for _, d := range demand {
		if d.Weight < 0 {
			return fmt.Errorf("sim: negative weight %v for key %d", d.Weight, d.Key)
		}
		total += d.Weight
	}
	if total == 0 {
		return fmt.Errorf("sim: zero total demand")
	}
	tw := twins.Get().(*twin)
	defer twins.Put(tw)
	if err := tw.open(*tl, env, false); err != nil {
		return err
	}
	for _, d := range demand {
		w := d.Weight / total
		for a := lo; a < hi; a++ {
			m, found, err := tw.lookup(a, d.Key, pw)
			if err := visit(w, m, found, err); err != nil {
				return fmt.Errorf("sim: key %d arrival %d: %w", d.Key, a, err)
			}
		}
	}
	return nil
}
