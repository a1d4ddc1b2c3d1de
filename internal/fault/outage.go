package fault

import (
	"errors"
	"fmt"
)

// This file extends the lossy-channel model with whole-channel outages: a
// transmitter loses one of its k channels for a window of slots, and every
// slot the channel would have aired in that window is dead air. Unlike
// Drop — an independent per-slot coin — an outage is a correlated burst,
// which is what makes failover (re-tuning the descent onto a surviving
// channel) worth modeling: no amount of same-channel retrying brings the
// data back before the window ends.
//
// Outage windows are plain data and the dark/live decision is a pure
// function of (channel, absolute slot), so the analytic simulator and the
// socket tower observe the same outage realization and stay byte-identical.

// Outage is one channel-outage window: the channel transmits dead air for
// every absolute slot in [StartSlot, EndSlot) and is healthy outside it.
type Outage struct {
	// Channel is the 1-based channel that goes dark.
	Channel int
	// StartSlot is the first dark absolute slot (0-based).
	StartSlot int
	// EndSlot is the first slot back on the air (half-open window).
	EndSlot int
}

// Covers reports whether the window includes the absolute slot.
func (o Outage) Covers(slot int) bool {
	return slot >= o.StartSlot && slot < o.EndSlot
}

// Len returns the window length in slots.
func (o Outage) Len() int { return o.EndSlot - o.StartSlot }

// Validate rejects a malformed window.
func (o Outage) Validate() error {
	if o.Channel < 1 {
		return fmt.Errorf("fault: outage channel %d, want >= 1", o.Channel)
	}
	if o.StartSlot < 0 {
		return fmt.Errorf("fault: outage start slot %d, want >= 0", o.StartSlot)
	}
	if o.EndSlot <= o.StartSlot {
		return fmt.Errorf("fault: outage window [%d, %d) is empty", o.StartSlot, o.EndSlot)
	}
	return nil
}

// String renders the window as channel:start:end.
func (o Outage) String() string {
	return fmt.Sprintf("%d:%d:%d", o.Channel, o.StartSlot, o.EndSlot)
}

// Outages is an outage schedule. Windows may overlap — on one channel
// (the union is dark) or across channels (several channels dark at once).
type Outages []Outage

// Enabled reports whether the schedule darkens anything at all.
func (os Outages) Enabled() bool { return len(os) > 0 }

// Validate rejects a schedule containing a malformed window.
func (os Outages) Validate() error {
	for i, o := range os {
		if err := o.Validate(); err != nil {
			return fmt.Errorf("fault: outage %d: %w", i, err)
		}
	}
	return nil
}

// DarkAt reports whether the channel is dark at the absolute slot: some
// window covering (channel, slot) exists. Schedules are small (a handful
// of windows), so the linear scan is deterministic and cache-friendly.
func (os Outages) DarkAt(channel, slot int) bool {
	for _, o := range os {
		if o.Channel == channel && o.Covers(slot) {
			return true
		}
	}
	return false
}

// ErrOutageGen rejects invalid generator parameters.
var ErrOutageGen = errors.New("fault: invalid outage generator parameters")

// GenOutages derives a deterministic outage schedule from a seed via the
// same splitmix64 chain the per-slot fault model uses: n windows, each on
// a channel in [1, channels], starting in [0, horizon) and lasting between
// minLen and maxLen slots. Identical arguments always produce the
// identical schedule, so a sweep over seeds is a sweep over outage
// realizations.
func GenOutages(seed int64, channels, n, horizon, minLen, maxLen int) (Outages, error) {
	switch {
	case channels < 1:
		return nil, fmt.Errorf("%w: %d channels", ErrOutageGen, channels)
	case n < 0:
		return nil, fmt.Errorf("%w: %d windows", ErrOutageGen, n)
	case horizon < 1:
		return nil, fmt.Errorf("%w: horizon %d", ErrOutageGen, horizon)
	case minLen < 1 || maxLen < minLen:
		return nil, fmt.Errorf("%w: window length [%d, %d]", ErrOutageGen, minLen, maxLen)
	}
	h := mix(uint64(seed) ^ 0xa02f_1c5d_93b4_77e6)
	out := make(Outages, 0, n)
	for i := 0; i < n; i++ {
		h = mix(h ^ uint64(3*i+1))
		ch := int(h%uint64(channels)) + 1
		h = mix(h ^ uint64(3*i+2))
		start := int(h % uint64(horizon))
		h = mix(h ^ uint64(3*i+3))
		length := minLen + int(h%uint64(maxLen-minLen+1))
		out = append(out, Outage{Channel: ch, StartSlot: start, EndSlot: start + length})
	}
	return out, nil
}

// LiveEvent is one change of the live-channel set under the watchdog: at
// Slot the detector's view flips, and Live is the sorted set of channels
// it then believes healthy.
type LiveEvent struct {
	Slot int
	Live []int
}

// Watchdog is the missed-tick detector, stepped one aired slot at a
// time; its view entering slot t depends on slots before t only. A
// channel's verdict flips once its last threshold slots all disagreed
// with it: dark after threshold dark slots, healthy after threshold live
// ones, so a shorter glitch in either direction never flaps the set. The
// netcast tower steps one per aired slot and Detections loops one over a
// horizon, so both place replans at the same slots by construction.
type Watchdog struct {
	outages   Outages
	threshold int
	dark      []bool // each channel's verdict
	run       []int  // each channel's consecutive slots against its verdict
	at        int    // the slot the view is of: every earlier one is accounted
}

// NewWatchdog starts a detector over the schedule for a tower of the
// given channel count, with every channel healthy entering slot from.
func NewWatchdog(os Outages, channels, threshold, from int) *Watchdog {
	channels = max(channels, 0)
	return &Watchdog{os, threshold, make([]bool, channels), make([]int, channels), from}
}

// Armed reports whether stepping can ever change the view.
func (w *Watchdog) Armed() bool {
	return w.threshold >= 1 && len(w.dark) > 0 && w.outages.Enabled()
}

// At returns the slot the view is of.
func (w *Watchdog) At() int { return w.at }

// Step accounts the transmission of slot At() and returns the next slot,
// the one the new view is of, and whether any verdict changed. It calls
// flip, when non-nil, for each channel that changed, in channel order.
func (w *Watchdog) Step(flip func(ch, slot int, dark bool)) (int, bool) {
	slot := w.at
	w.at++
	changed := false
	for i := range w.dark {
		if w.outages.DarkAt(i+1, slot) == w.dark[i] {
			w.run[i] = 0
			continue
		}
		if w.run[i]++; w.run[i] >= w.threshold {
			w.dark[i], w.run[i], changed = !w.dark[i], 0, true
			if flip != nil {
				flip(i+1, w.at, w.dark[i])
			}
		}
	}
	return w.at, changed
}

// Live returns the sorted channels the detector believes healthy.
func (w *Watchdog) Live() []int {
	live := make([]int, 0, len(w.dark))
	for i, d := range w.dark {
		if !d {
			live = append(live, i+1)
		}
	}
	return live
}

// Detections replays the watchdog over slots [0, horizon) and returns
// every live-set change it reports, each at the slot whose view it
// changes: where the tower triggers a replan.
func (os Outages) Detections(channels, watchdog, horizon int) []LiveEvent {
	w := NewWatchdog(os, channels, watchdog, 0)
	if !w.Armed() {
		return nil
	}
	var events []LiveEvent
	for w.At() < horizon {
		if t, changed := w.Step(nil); changed {
			events = append(events, LiveEvent{Slot: t, Live: w.Live()})
		}
	}
	return events
}
