package netcast

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// These tests pin channel-outage tolerance end to end: the missed-tick
// watchdog inside the server must agree event for event with its analytic
// twin fault.Outages.Detections, and a client failing over across dead
// channels — with and without a survivor replan riding a hot swap — must
// report Metrics byte-identical to sim's Timeline.QuerySwitch under the
// identical outage schedule, including the Failovers count and the
// fault.ErrRetryBudget terminal condition.

// driveUntil ticks the server until the client session completes. A
// finished client has detached, so ticks never block on it.
func driveUntil(t testing.TB, s *Server, done <-chan outageOutcome) outageOutcome {
	t.Helper()
	for {
		select {
		case out := <-done:
			return out
		default:
			if err := s.Tick(); err != nil {
				t.Fatalf("tick: %v", err)
			}
		}
	}
}

type outageOutcome struct {
	found bool
	m     sim.Metrics
	err   error
}

// runOutageLookup drives one failover-armed lookup against a static
// server broadcasting under the given outage schedule.
func runOutageLookup(t testing.TB, p *sim.Program, opts ServerOptions, oc sim.FaultConfig, arrival int, key int64) outageOutcome {
	t.Helper()
	s, err := NewServerOpts(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := pipeClient(t, s)
	defer c.Close()
	c.MaxRetries = oc.MaxRetries
	c.DeadAir = oc.DeadAir
	c.Channels = p.Channels()

	done := make(chan outageOutcome, 1)
	go func() {
		found, _, m, err := c.Lookup(arrival, key, pw)
		done <- outageOutcome{found, m, err}
	}()
	return driveUntil(t, s, done)
}

// checkOutcome asserts tower and twin agree byte for byte: identical
// Metrics (even on a failed query — both sides stop at the same
// operation), identical found, and ErrRetryBudget on both sides or
// neither.
func checkOutcome(t *testing.T, label string, got outageOutcome, wantM sim.Metrics, wantFound bool, wantErr error) {
	t.Helper()
	if (got.err == nil) != (wantErr == nil) {
		t.Fatalf("%s: net err %v, sim err %v", label, got.err, wantErr)
	}
	if got.err != nil && (!errors.Is(got.err, fault.ErrRetryBudget) || !errors.Is(wantErr, fault.ErrRetryBudget)) {
		t.Fatalf("%s: non-budget errors: net %v, sim %v", label, got.err, wantErr)
	}
	if got.m != wantM || got.found != wantFound {
		t.Fatalf("%s: net %+v/%v != sim %+v/%v", label, got.m, got.found, wantM, wantFound)
	}
}

// TestWatchdogMatchesDetections pins the server's incremental health
// tracker to its pure-function twin: the OnLiveChange events the tower
// emits are exactly fault.Outages.Detections of the same schedule, with
// every connection parked far ahead.
func TestWatchdogMatchesDetections(t *testing.T) {
	p := compiled(t, 8, 3, 5, true)
	out := fault.Outages{
		{Channel: 1, StartSlot: 4, EndSlot: 9},
		{Channel: 2, StartSlot: 6, EndSlot: 20},
		{Channel: 1, StartSlot: 30, EndSlot: 33},
		{Channel: 3, StartSlot: 10, EndSlot: 11}, // one-slot glitch: debounced away
	}
	const w, horizon = 3, 60
	r := obs.New()
	var got []fault.LiveEvent
	s, err := NewServerOpts(p, ServerOptions{
		Outages:  out,
		Watchdog: w,
		Obs:      r,
		OnLiveChange: func(live []int, slot int) {
			got = append(got, fault.LiveEvent{Slot: slot, Live: append([]int{}, live...)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Connections parked past the horizon leave every slot untuned; the
	// armed schedule must still run the watchdog on each of them.
	park(t, s, 3, p.Channels(), horizon+1000)
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	want := out.Detections(p.Channels(), w, horizon)
	if len(want) == 0 {
		t.Fatal("schedule produced no detections; the pin is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("watchdog events:\n got %v\nwant %v", got, want)
	}
	// Past the last window plus the debounce, every channel is live again.
	if live := s.ChannelsLive(); !reflect.DeepEqual(live, []int{1, 2, 3}) {
		t.Fatalf("ChannelsLive = %v after all windows closed", live)
	}
	if v := r.Gauge("netcast_channels_live").Value(); v != 3 {
		t.Fatalf("netcast_channels_live = %d, want 3", v)
	}
	if r.Counter("netcast_outages_total").Value() == 0 || r.Counter("netcast_recoveries_total").Value() == 0 {
		t.Fatal("outage/recovery counters did not move")
	}
	if int(r.Counter("netcast_replans_total").Value()) != len(want) {
		t.Fatalf("netcast_replans_total = %d, want %d", r.Counter("netcast_replans_total").Value(), len(want))
	}

	// A negative watchdog disables detection entirely.
	fired := false
	s2, err := NewServerOpts(p, ServerOptions{
		Outages:      out,
		Watchdog:     -1,
		OnLiveChange: func([]int, int) { fired = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("disabled watchdog still fired")
	}
	if live := s2.ChannelsLive(); len(live) != p.Channels() {
		t.Fatalf("disabled watchdog reports %v live", live)
	}
}

// TestOutageLookupMatchesTwinSingle cross-checks the tower against the
// analytic twin under a single outage window — once on the root channel
// (the belief must move) and once on a data channel (it must not).
func TestOutageLookupMatchesTwinSingle(t *testing.T) {
	p := compiled(t, 8, 2, 31, true)
	L := p.CycleLen()
	for _, out := range []fault.Outages{
		{{Channel: 1, StartSlot: L, EndSlot: 4 * L}},
		{{Channel: 2, StartSlot: L, EndSlot: 4 * L}},
	} {
		oc := sim.FaultConfig{Outages: out, MaxRetries: 64, DeadAir: 3}
		opts := ServerOptions{Outages: out, Watchdog: -1}
		failovers := 0
		for arrival := 0; arrival < 5*L; arrival++ {
			for key := int64(1); key <= 9; key++ { // key 9 is absent
				wantM, wantFound, wantErr := staticTimeline(t, p).QuerySwitch(arrival, key, pw, oc)
				got := runOutageLookup(t, p, opts, oc, arrival, key)
				checkOutcome(t, out[0].String(), got, wantM, wantFound, wantErr)
				failovers += got.m.Failovers
			}
		}
		if failovers == 0 {
			t.Fatalf("outage %v: no lookup ever failed over", out)
		}
	}
}

// TestOutageLookupMatchesTwinOverlapping cross-checks under overlapping
// windows: two on the same channel (the union is dark) and one on the
// other channel overlapping both, so there is a stretch where every
// channel is dark at once and the budget arithmetic matters.
func TestOutageLookupMatchesTwinOverlapping(t *testing.T) {
	p := compiled(t, 8, 2, 31, true)
	L := p.CycleLen()
	out := fault.Outages{
		{Channel: 1, StartSlot: L, EndSlot: 3 * L},
		{Channel: 1, StartSlot: 2 * L, EndSlot: 4 * L},
		{Channel: 2, StartSlot: L + 1, EndSlot: 5 * L},
	}
	opts := ServerOptions{Outages: out, Watchdog: -1}
	// A generous budget rides everything out; a tight one must exhaust
	// identically on both sides for the all-dark arrivals.
	for _, budget := range []int{64, 5} {
		oc := sim.FaultConfig{Outages: out, MaxRetries: budget, DeadAir: 3}
		exhausted := 0
		for arrival := 0; arrival < 5*L; arrival++ {
			for key := int64(1); key <= 8; key += 3 {
				wantM, wantFound, wantErr := staticTimeline(t, p).QuerySwitch(arrival, key, pw, oc)
				got := runOutageLookup(t, p, opts, oc, arrival, key)
				checkOutcome(t, out[0].String(), got, wantM, wantFound, wantErr)
				if got.err != nil {
					exhausted++
				}
			}
		}
		if budget == 5 && exhausted == 0 {
			t.Fatal("tight budget never exhausted under the all-dark overlap")
		}
	}
}

// survivorProgram replans the program's catalog onto the live channels
// and remaps the result back to full tower width — the same pipeline
// broadcast.Optimize runs for a live planner, expressed over the internal
// packages this test can reach.
func survivorProgram(t testing.TB, base *sim.Program, live []int, k int) *sim.Program {
	t.Helper()
	sol, err := core.Solve(base.Tree(), core.Config{Channels: k, LiveChannels: live})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Compile(sol.Alloc, sim.Options{FillWithRootCopies: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Live) > 0 && len(sol.Live) < k {
		if p, err = p.Remap(sol.Live, k); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// outageTower couples an adaptive server to the watchdog-replan loop: on
// every live-set change the next survivor program is staged, exactly as
// the analytic timeline stages it at the detection slot.
func outageTower(t testing.TB, p1 *sim.Program, progs []*sim.Program, opts ServerOptions) *Server {
	t.Helper()
	reg, err := epoch.NewRegistry(p1)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	opts.OnLiveChange = func(live []int, slot int) {
		if idx < len(progs) {
			if _, err := reg.Stage(progs[idx]); err != nil {
				t.Errorf("stage %d: %v", idx, err)
			}
			idx++
		}
	}
	s, err := NewAdaptiveServer(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOutageDuringSwapMatchesTimeline is the full tentpole cross-check:
// the root channel goes dark, the watchdog detects it, the broadcast is
// replanned onto the survivor (moving the index root to channel 2) and
// hot-swapped at a cycle boundary; when the channel recovers, a
// full-width replan swaps back. Every (arrival, key) session over the
// whole horizon must match sim's Timeline.QuerySwitch byte for byte —
// including sessions whose descent straddles an outage AND a swap.
func TestOutageDuringSwapMatchesTimeline(t *testing.T) {
	p1 := compiled(t, 8, 2, 31, true)
	L := p1.CycleLen()
	const w = 3
	out := fault.Outages{{Channel: 1, StartSlot: 2 * L, EndSlot: 6 * L}}
	horizon := 12 * L

	events := out.Detections(p1.Channels(), w, horizon)
	if len(events) != 2 {
		t.Fatalf("expected dark+recovery detections, got %v", events)
	}
	progs := make([]*sim.Program, len(events))
	for i, ev := range events {
		progs[i] = survivorProgram(t, p1, ev.Live, p1.Channels())
	}
	if progs[0].RootChannel() != 2 {
		t.Fatalf("survivor root channel %d, want 2", progs[0].RootChannel())
	}

	tl, err := sim.NewTimeline(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if _, err := tl.Append(progs[i], uint32(i+2), ev.Slot); err != nil {
			t.Fatal(err)
		}
	}

	oc := sim.FaultConfig{Outages: out, MaxRetries: 64, DeadAir: w}
	opts := ServerOptions{Outages: out, Watchdog: w}
	failovers := 0
	for arrival := 0; arrival < 8*L; arrival++ {
		for key := int64(1); key <= 8; key++ {
			wantM, wantFound, wantErr := tl.QuerySwitch(arrival, key, pw, oc)
			s := outageTower(t, p1, progs, opts)
			c := pipeClient(t, s)
			c.MaxRetries, c.DeadAir, c.Channels = oc.MaxRetries, oc.DeadAir, p1.Channels()
			done := make(chan outageOutcome, 1)
			go func() {
				found, _, m, err := c.Lookup(arrival, key, pw)
				done <- outageOutcome{found, m, err}
			}()
			got := driveUntil(t, s, done)
			c.Close()
			s.Close()
			checkOutcome(t, "swap+outage", got, wantM, wantFound, wantErr)
			failovers += got.m.Failovers
		}
	}
	if failovers == 0 {
		t.Fatal("no session ever failed over")
	}

	// One clientless run to the horizon: both swaps land and the live set
	// returns to full width.
	s := outageTower(t, p1, progs, opts)
	defer s.Close()
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if got := s.Swaps(); got != len(events) {
		t.Fatalf("%d swaps landed, want %d", got, len(events))
	}
	if live := s.ChannelsLive(); !reflect.DeepEqual(live, []int{1, 2}) {
		t.Fatalf("live set %v after recovery", live)
	}
}

// TestOutageStageReplacementMatchesReplanTimeline pins the registry's
// stage-replacement rule on the tower to experiment.ReplanTimeline. Two
// windows each put two detections inside one cycle of the outgoing
// program: the first window's recovery fires exactly at the pending
// survivor's swap slot, the second's strictly before it. Each time the
// recovery replan replaces the survivor, which never airs. The tower's
// swap slots and Swaps must equal the timeline's entries, and every
// (arrival, key) session must match QuerySwitch on it.
func TestOutageStageReplacementMatchesReplanTimeline(t *testing.T) {
	p1 := compiled(t, 8, 2, 31, true)
	L := p1.CycleLen()
	const w = 2
	if L < 2*w+4 {
		t.Fatalf("cycle length %d too short for the schedule", L)
	}
	out := fault.Outages{
		{Channel: 1, StartSlot: 2*L + 1, EndSlot: 3*L - w},
		{Channel: 2, StartSlot: 5*L + 2, EndSlot: 5*L + 3 + w},
	}
	horizon := 8 * L
	events := out.Detections(p1.Channels(), w, horizon)
	if len(events) != 4 {
		t.Fatalf("expected two dark+recovery pairs, got %v", events)
	}
	progs, err := experiment.ReplanPrograms(p1, events, p1.Channels())
	if err != nil {
		t.Fatal(err)
	}
	tl, replans, err := experiment.ReplanTimeline(p1, events, progs)
	if err != nil {
		t.Fatal(err)
	}
	entries := tl.Entries()
	if replans != 2 || len(entries) != 3 {
		t.Fatalf("%d replans aired (%d entries), want the 2 recoveries", replans, len(entries))
	}
	// The first recovery is detected at the very slot the survivor staged
	// before it was due to swap in; the second, strictly before it.
	if entries[1].Start != events[1].Slot || events[1].Slot != 3*L {
		t.Fatalf("first recovery at %d lands at %d, want both at %d", events[1].Slot, entries[1].Start, 3*L)
	}
	if events[3].Slot >= entries[2].Start || entries[2].Start-events[2].Slot > entries[1].Prog.CycleLen() {
		t.Fatalf("second pair %v, %v not inside the cycle before swap slot %d", events[2], events[3], entries[2].Start)
	}

	// A clientless run to the horizon: the tower swaps exactly where the
	// timeline does.
	r := obs.New()
	opts := ServerOptions{Outages: out, Watchdog: w}
	ro := opts
	ro.Obs = r
	s := outageTower(t, p1, progs, ro)
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	s.Close()
	var swapSlots, wantSlots []int
	for _, e := range r.Events(0) {
		if e.Kind != "swap" {
			continue
		}
		for _, a := range e.Attrs {
			if a.Key == "slot" {
				swapSlots = append(swapSlots, int(a.Val))
			}
		}
	}
	for _, e := range entries[1:] {
		wantSlots = append(wantSlots, e.Start)
	}
	if !reflect.DeepEqual(swapSlots, wantSlots) || s.Swaps() != len(wantSlots) {
		t.Fatalf("tower swapped at %v (%d swaps), timeline at %v", swapSlots, s.Swaps(), wantSlots)
	}

	oc := sim.FaultConfig{Outages: out, MaxRetries: 64, DeadAir: w}
	for arrival := 0; arrival < 7*L; arrival++ {
		for key := int64(1); key <= 8; key++ {
			wantM, wantFound, wantErr := tl.QuerySwitch(arrival, key, pw, oc)
			s := outageTower(t, p1, progs, opts)
			c := pipeClient(t, s)
			c.MaxRetries, c.DeadAir, c.Channels = oc.MaxRetries, oc.DeadAir, p1.Channels()
			done := make(chan outageOutcome, 1)
			go func() {
				found, _, m, err := c.Lookup(arrival, key, pw)
				done <- outageOutcome{found, m, err}
			}()
			got := driveUntil(t, s, done)
			c.Close()
			s.Close()
			checkOutcome(t, "stage replacement", got, wantM, wantFound, wantErr)
		}
	}
}

// TestOutageSoak is the kill/revive endurance run: 50 outage windows
// cycle through a 4-channel tower, each detected, replanned onto the
// survivors, hot-swapped, and recovered — with a failover-armed client
// session live during every window. Afterwards no goroutines may linger,
// the span history must stay bounded, the live set must be back to full
// width, and every client must have either completed or ended in
// fault.ErrRetryBudget. scripts/check.sh runs this under -race.
func TestOutageSoak(t *testing.T) {
	const (
		kills    = 50
		w        = 2
		deadAir  = 3
		budget   = 24
		maxSpans = 6
	)
	p := compiled(t, 10, 4, 41, true)
	K, L := p.Channels(), p.CycleLen()
	// A retry re-tunes one full cycle later, so a window must span at
	// least DeadAir cycles for a client to see DeadAir consecutive dark
	// reads and fail over.
	dur, gap := 3*L, 2*L+2*w
	var out fault.Outages
	for i := 0; i < kills; i++ {
		start := L + i*(dur+gap)
		out = append(out, fault.Outage{Channel: i%K + 1, StartSlot: start, EndSlot: start + dur})
	}
	horizon := L + kills*(dur+gap) + 4*w

	// Survivor programs per distinct live set (full width and each
	// single-channel loss), staged by the watchdog hook as events fire.
	events := out.Detections(K, w, horizon)
	cache := map[string]*sim.Program{}
	progFor := func(live []int) *sim.Program {
		key := ""
		for _, ch := range live {
			key += string(rune('0' + ch))
		}
		if p2, ok := cache[key]; ok {
			return p2
		}
		p2 := survivorProgram(t, p, live, K)
		cache[key] = p2
		return p2
	}
	progs := make([]*sim.Program, len(events))
	for i, ev := range events {
		progs[i] = progFor(ev.Live)
	}

	before := runtime.NumGoroutine()
	r := obs.New()
	s := outageTower(t, p, progs, ServerOptions{Outages: out, Watchdog: w, Obs: r})

	completed, exhausted := 0, 0
	for i := 0; i < kills; i++ {
		// Park the clock one slot into window i, then run a session that
		// must live through the kill (and often the revive and its swap).
		for s.Now() <= out[i].StartSlot {
			if err := s.Tick(); err != nil {
				t.Fatalf("kill %d: tick: %v", i, err)
			}
		}
		c := pipeClient(t, s)
		c.MaxRetries, c.DeadAir, c.Channels = budget, deadAir, K
		c.Instrument(r)
		arrival := s.Now()
		key := int64(i%10 + 1)
		done := make(chan outageOutcome, 1)
		go func() {
			found, _, m, err := c.Lookup(arrival, key, pw)
			done <- outageOutcome{found, m, err}
		}()
		got := driveUntil(t, s, done)
		c.Close()
		switch {
		case got.err == nil:
			completed++
		case errors.Is(got.err, fault.ErrRetryBudget):
			exhausted++
		default:
			t.Fatalf("kill %d: non-budget failure: %v", i, got.err)
		}
		if sc := s.SpanCount(); sc > maxSpans {
			t.Fatalf("kill %d: span history at %d entries", i, sc)
		}
	}
	// Run out the schedule so the last window's recovery is detected.
	for s.Now() < horizon {
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}

	if completed+exhausted != kills {
		t.Fatalf("%d completed + %d exhausted != %d sessions", completed, exhausted, kills)
	}
	if completed == 0 {
		t.Fatal("every session exhausted its budget; the failover path never succeeded")
	}
	if r.Counter("client_failovers_total").Value() == 0 {
		t.Fatal("no session ever failed over")
	}
	if got := s.Swaps(); got < kills {
		t.Fatalf("%d swaps landed over %d kill/revive cycles", got, kills)
	}
	if live := s.ChannelsLive(); len(live) != K {
		t.Fatalf("live set %v at end of soak, want all %d channels", live, K)
	}
	if v := r.Gauge("netcast_channels_live").Value(); v != int64(K) {
		t.Fatalf("netcast_channels_live = %d, want %d", v, K)
	}
	if sc := s.SpanCount(); sc > maxSpans {
		t.Fatalf("span history ends at %d entries", sc)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Every handler and delivery goroutine must have drained.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines before the soak, %d after close", before, g)
	}
}
