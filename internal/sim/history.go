package sim

// Span is one epoch's tenure on the absolute slot axis: the program on
// the air from slot Start has cycle length CycleLen.
type Span struct {
	Start    int
	CycleLen int
}

// History is a broadcast's span list, oldest first; the last span is the
// program on the air. It is the clock the netcast tower and the analytic
// Timeline share: which epoch aired a slot, where a staged epoch lands,
// and when a passed slot airs again.
type History []Span

// nextBoundary returns the first slot at or after t >= start on the cycle
// grid of period l from start: where a staged epoch lands, and where a
// passed slot airs again.
func nextBoundary(start, l, t int) int {
	return start + (t-start+l-1)/l*l
}

// At returns the index of the span that aired slot t, or 0 for a slot
// older than the (compacted) history. A static program's one span costs
// no comparison at all; the search is a loop, not a call, so At and
// Timeline.CycleSlot stay inlinable on the analytic medium's hot path.
func (h History) At(t int) int {
	i, j := 0, len(h)-1
	for i < j {
		if m := int(uint(i+j+1) >> 1); h[m].Start <= t {
			i = m
		} else {
			j = m - 1
		}
	}
	return i
}

// Boundary returns where an epoch staged at slot t takes the air: the
// first cycle boundary of the on-air program at or after t.
func (h History) Boundary(t int) int {
	last := h[len(h)-1]
	return nextBoundary(last.Start, last.CycleLen, t)
}

// CatchUp returns the slot that serves a request for slot when clock is
// the first slot not yet aired: slot itself, or its next cyclic
// occurrence at or after clock, bumped by the cycle length of whichever
// epoch aired each passed one.
func (h History) CatchUp(slot, clock int) int {
	if slot >= clock {
		return slot
	}
	return h.catchUp(slot, clock)
}

// catchUp takes one rounding step per span, not one per passed cycle.
func (h History) catchUp(slot, clock int) int {
	i := h.At(slot)
	for slot < clock {
		// Round up within span i, stopping at the clock or at the next
		// span's start, whichever comes first.
		end := clock
		if i+1 < len(h) {
			end = min(end, h[i+1].Start)
		}
		slot = nextBoundary(slot, h[i].CycleLen, end)
		for i+1 < len(h) && h[i+1].Start <= slot {
			i++
		}
	}
	return slot
}

// Compact drops the spans that ended before floor, the oldest slot
// anyone may still request; no catch-up from floor on changes.
func (h *History) Compact(floor int) {
	if i := h.At(floor); i > 0 {
		*h = append((*h)[:0], (*h)[i:]...)
	}
}
