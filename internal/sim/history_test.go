package sim

import (
	"math/rand"
	"testing"
)

// catchUpLoop is the cyclic catch-up as the tower first computed it: one
// cycle of the epoch that aired slot per iteration,
// O((clock-slot)/cycleLen) steps. It is the oracle History.CatchUp and
// the analytic medium are pinned against.
func catchUpLoop(h History, clock, slot int) int {
	for slot < clock {
		i := len(h) - 1
		for i > 0 && h[i].Start > slot {
			i--
		}
		slot += h[i].CycleLen
	}
	return slot
}

// randomHistory draws a history of 1-6 spans with distinct starts and
// cycle lengths of 1-40 slots; the first span may start after slot 0, as
// a compacted history does.
func randomHistory(rng *rand.Rand) History {
	n := 1 + rng.Intn(6)
	h := make(History, n)
	start := 0
	if rng.Intn(2) == 0 {
		start = rng.Intn(500)
	}
	for i := range h {
		h[i] = Span{Start: start, CycleLen: 1 + rng.Intn(40)}
		start += 1 + rng.Intn(300)
	}
	return h
}

// TestCatchUpMatchesLoop pins the arithmetic catch-up to the iterative
// oracle on a static program's single span and on random multi-span
// histories, with clocks up to past 10^7 slots, requests for slot 0, and
// requests on every span edge.
func TestCatchUpMatchesLoop(t *testing.T) {
	check := func(h History, clock, slot int) {
		t.Helper()
		if got, want := h.CatchUp(slot, clock), catchUpLoop(h, clock, slot); got != want {
			t.Fatalf("spans %v, clock %d, request %d: served at %d, want %d", h, clock, slot, got, want)
		}
	}
	static := History{{Start: 0, CycleLen: 13}}
	for _, clock := range []int{0, 1, 7, 1000, 10_000_000, 10_000_019} {
		for _, slot := range []int{0, 1, clock / 2, clock - 1, clock, clock + 5} {
			if slot >= 0 {
				check(static, clock, slot)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		h := randomHistory(rng)
		clock := h[len(h)-1].Start + rng.Intn(400)
		if trial%100 == 0 {
			clock = 10_000_000 + rng.Intn(1000)
		}
		slots := []int{0, clock - 1, clock, clock + rng.Intn(50), rng.Intn(clock + 1)}
		for _, sp := range h {
			slots = append(slots, sp.Start-1, sp.Start, sp.Start+1)
		}
		for _, slot := range slots {
			if slot >= 0 {
				check(h, clock, slot)
			}
		}
	}
}

// TestHearServesCatchUp is the twin half of the catch-up pin: on random
// multi-epoch timelines, the analytic medium serves a request for a
// passed slot at the slot the per-cycle oracle gives, and hears there
// the bucket of the epoch on the air at that slot.
func TestHearServesCatchUp(t *testing.T) {
	progs := make([]*Program, 6)
	for i := range progs {
		progs[i] = keyedProgram(t, 3+2*i, 2, int64(i+1))
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		tl, err := NewTimeline(progs[rng.Intn(len(progs))], 1)
		if err != nil {
			t.Fatal(err)
		}
		at, epochs := 0, 1+rng.Intn(5)
		for e := uint32(2); e <= uint32(epochs); e++ {
			at = tl.spans[len(tl.spans)-1].Start + 1 + rng.Intn(120)
			if _, err := tl.Append(progs[rng.Intn(len(progs))], e, at); err != nil {
				t.Fatal(err)
			}
		}
		clock := tl.spans[len(tl.spans)-1].Start + rng.Intn(200)
		a := &air{env: &FaultConfig{}, born: -1}
		a.tl = *tl
		for _, slot := range []int{0, rng.Intn(clock + 1), at - 1, at, clock - 1} {
			if slot < 0 {
				continue
			}
			a.clock = clock
			ch := 1 + rng.Intn(2)
			r := a.Hear(ch, slot)
			want := catchUpLoop(tl.spans, clock, slot)
			if r.Status != Heard || r.Slot != want {
				t.Fatalf("spans %v, clock %d, request %d: status %v at slot %d, want heard at %d",
					tl.spans, clock, slot, r.Status, r.Slot, want)
			}
			e, cs := tl.CycleSlot(want)
			if b := &e.Prog.buckets[ch-1][cs-1]; r.View.Epoch != e.Epoch || r.View.Node != b.Node {
				t.Fatalf("request %d served at %d: heard epoch %d node %v, want epoch %d node %v",
					slot, want, r.View.Epoch, r.View.Node, e.Epoch, b.Node)
			}
		}
	}
}
