package sim

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/tree"
)

// This file implements remap-to-full-width: a program solved over k'
// surviving channels is re-expressed as a program over the tower's full
// physical width, with the dark channels transmitting filler. The epoch
// registry and the adaptive timeline both require consecutive programs to
// have equal channel counts — a survivor replan must not shrink the
// tower, only re-route the content — and Remap is how that invariant is
// preserved under outage.

// Remap input errors. Remap wraps these with %w so an operator loop can
// distinguish "nothing survived the outage" (ErrNoSurvivors — replanning
// is pointless, the tower is dark) from a malformed channel mapping
// (ErrChannelOutOfRange — a bug in the caller) without matching message
// text.
var (
	// ErrNoSurvivors reports a remap onto an empty survivor set.
	ErrNoSurvivors = errors.New("sim: remap with no surviving channels")

	// ErrChannelOutOfRange reports a physical channel id outside
	// [1, width].
	ErrChannelOutOfRange = errors.New("sim: remap physical channel out of range")
)

// Remap re-expresses the program over width physical channels, placing
// logical channel i on physical channel phys[i-1]. Physical channels not
// named in phys transmit only dead-air filler (every bucket Node ==
// tree.None). The phys list must be strictly increasing, within
// [1, width], and exactly as long as the program's channel count.
//
// The receiver is not modified; the result is a deep copy (buckets and
// pointer slices are cloned) so the original stays servable while the
// remapped program is staged as the next epoch. The remapped program's
// root channel is phys[0] — clients probing for the index root are
// redirected there by the RootChannel stamp on every bucket's frame.
func (p *Program) Remap(phys []int, width int) (*Program, error) {
	if len(phys) == 0 {
		return nil, fmt.Errorf("%w (program has %d channels)", ErrNoSurvivors, p.k)
	}
	if len(phys) != p.k {
		return nil, fmt.Errorf("sim: remap got %d physical channels for a %d-channel program", len(phys), p.k)
	}
	if width < p.k {
		return nil, fmt.Errorf("sim: remap width %d below program channel count %d", width, p.k)
	}
	for i, ch := range phys {
		if ch < 1 || ch > width {
			return nil, fmt.Errorf("%w: channel %d outside [1, %d]", ErrChannelOutOfRange, ch, width)
		}
		if i > 0 && ch <= phys[i-1] {
			return nil, fmt.Errorf("sim: remap physical channels %v not strictly increasing", phys)
		}
	}
	q := &Program{
		t:        p.t,
		k:        width,
		cycleLen: p.cycleLen,
		buckets:  make([][]Bucket, width),
		slotOf:   make([]alloc.Position, len(p.slotOf)),
		span:     p.span,
		rootCh:   phys[0],
	}
	// Dark channels carry filler buckets that still advertise the cycle
	// boundary, so a client that tunes into dead air can re-synchronize.
	for ch := range q.buckets {
		q.buckets[ch] = make([]Bucket, q.cycleLen)
		for s := 1; s <= q.cycleLen; s++ {
			q.buckets[ch][s-1] = Bucket{Node: tree.None, NextCycle: q.cycleLen - s + 1}
		}
	}
	for logical := 1; logical <= p.k; logical++ {
		dst := q.buckets[phys[logical-1]-1]
		for s := range p.buckets[logical-1] {
			b := p.buckets[logical-1][s]
			if len(b.Children) > 0 {
				children := make([]Pointer, len(b.Children))
				for i, c := range b.Children {
					if c.Channel < 1 || c.Channel > p.k {
						return nil, fmt.Errorf("sim: remap pointer to channel %d outside program width %d", c.Channel, p.k)
					}
					c.Channel = phys[c.Channel-1]
					children[i] = c
				}
				b.Children = children
			}
			dst[s] = b
		}
	}
	for id, pos := range p.slotOf {
		if pos.Channel >= 1 && pos.Channel <= p.k {
			q.slotOf[id] = alloc.Position{Channel: phys[pos.Channel-1], Slot: pos.Slot}
		}
	}
	return q, nil
}
