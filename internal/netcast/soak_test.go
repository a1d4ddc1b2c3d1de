package netcast

import (
	"testing"

	"repro/internal/epoch"
	"repro/internal/sim"
)

// TestSpanHistoryBoundedSoak is the span-leak regression pin: before the
// compaction fix, Server.spans grew by one entry per epoch swap forever
// (and cycleLenAt was a linear scan over it), so a long-running adaptive
// tower leaked memory and slowed down. The soak drives well over 100
// swaps through a single server with a live client session riding across
// every swap, asserts every lookup still matches the analytic timeline
// byte for byte — compaction must never change what the tower serves —
// and then asserts the retained span history stayed bounded by the
// connection churn window instead of the swap count.
func TestSpanHistoryBoundedSoak(t *testing.T) {
	// Two alternating programs with different cycle lengths, so every
	// swap really changes the catch-up arithmetic the spans encode.
	pA := compiled(t, 8, 2, 1, true)
	pB := compiled(t, 6, 2, 2, true)
	if pA.CycleLen() == pB.CycleLen() {
		t.Fatalf("want distinct cycle lengths, got %d and %d", pA.CycleLen(), pB.CycleLen())
	}
	maxCycle := pA.CycleLen()
	if pB.CycleLen() > maxCycle {
		maxCycle = pB.CycleLen()
	}

	reg, err := epoch.NewRegistry(pA)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewAdaptiveServer(reg, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tl, err := sim.NewTimeline(pA, 1)
	if err != nil {
		t.Fatal(err)
	}

	// A staging must land strictly after its predecessor started airing,
	// so run the tower a few slots before the first one.
	for s.Now() < 2 {
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}

	const swapsWanted = 110
	peakSpans := 0
	for i := 0; i < swapsWanted; i++ {
		next := pB
		if i%2 == 1 {
			next = pA
		}
		stageSlot := s.Now()
		id, err := reg.Stage(next)
		if err != nil {
			t.Fatalf("swap %d: stage: %v", i, err)
		}
		wantSwap, err := tl.Append(next, id, stageSlot)
		if err != nil {
			t.Fatalf("swap %d: timeline append: %v", i, err)
		}

		// One live client session rides across the swap; its floor is
		// what the compaction must respect.
		arrival := stageSlot
		key := int64(i%6 + 1) // present in both programs
		c := pipeClient(t, s)
		type outcome struct {
			found bool
			m     sim.Metrics
			err   error
		}
		done := make(chan outcome, 1)
		go func() {
			found, _, m, err := c.Lookup(arrival, key, pw)
			done <- outcome{found, m, err}
		}()

		// Drive past the swap with headroom for the descent to finish.
		for target := wantSwap + 4*maxCycle; s.Now() < target; {
			if err := s.Tick(); err != nil {
				t.Fatalf("swap %d: tick: %v", i, err)
			}
		}
		out := await(t, done)
		c.Close()
		if out.err != nil {
			t.Fatalf("swap %d: lookup: %v", i, out.err)
		}
		wantM, wantFound, wantErr := tl.QuerySwitch(arrival, key, pw, sim.FaultConfig{})
		if wantErr != nil {
			t.Fatalf("swap %d: timeline: %v", i, wantErr)
		}
		if out.m != wantM || out.found != wantFound {
			t.Fatalf("swap %d: net %+v/%v != sim %+v/%v", i, out.m, out.found, wantM, wantFound)
		}
		if sc := s.SpanCount(); sc > peakSpans {
			peakSpans = sc
		}
	}

	if got := s.Swaps(); got != swapsWanted {
		t.Fatalf("%d swaps landed, want %d", got, swapsWanted)
	}
	// The leak this test pins: before compaction the history held one
	// span per swap (111 here). Bounded means a small constant.
	if peakSpans > 4 {
		t.Fatalf("span history peaked at %d entries over %d swaps; compaction is not bounding it", peakSpans, swapsWanted)
	}
	if got := s.SpanCount(); got > 3 {
		t.Fatalf("span history ends at %d entries, want <= 3", got)
	}
	// The timeline twin, which never compacts, really did accumulate one
	// entry per epoch — the memory the server no longer pays.
	if got := len(tl.Entries()); got != swapsWanted+1 {
		t.Fatalf("timeline has %d entries, want %d", got, swapsWanted+1)
	}
}
