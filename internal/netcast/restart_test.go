package netcast

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/retrieval"
	"repro/internal/sim"
)

// These tests pin station crash-restart tolerance end to end: a tower
// that is killed mid-cycle and warm-started from its checkpoint must
// resume airing at the checkpointed boundary, and a client session that
// observed the dropped socket must reconnect under the seeded backoff
// and finish with Metrics byte-identical to the analytic twin
// sim.Timeline.QuerySwitch under the identical (seed, downtime
// schedule, backoff) — including the Reconnects count and the
// fault.ErrRetryBudget terminal condition.

// crashHarness owns a tower that can be killed and warm-restarted
// mid-broadcast. All lifecycle transitions happen under one mutex, so a
// client redial can never race the restore: a dial observed after the
// kill always reaches either the closed old server (refused) or the
// fully restored new one.
type crashHarness struct {
	t    testing.TB
	prog *sim.Program
	opts ServerOptions
	down fault.Downtimes

	mu    sync.Mutex
	cur   *Server
	up    int // EndSlot of the last fired window: redials before it are refused
	kills int
}

// newCrashHarness starts a cold adaptive tower checkpointing at every
// cycle boundary (unless opts overrides the cadence) into a fresh file.
func newCrashHarness(t testing.TB, p *sim.Program, down fault.Downtimes, opts ServerOptions) *crashHarness {
	t.Helper()
	if opts.CheckpointPath == "" {
		opts.CheckpointPath = filepath.Join(t.TempDir(), "station.ckpt")
	}
	opts.Resume = true
	reg, err := epoch.NewRegistry(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewAdaptiveServer(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Warm() {
		t.Fatal("first boot restored a checkpoint that cannot exist")
	}
	return &crashHarness{t: t, prog: p, opts: opts, down: down, cur: s}
}

// attach opens a client session against the current tower, bypassing the
// downtime gate (a fresh session dials a station that is up by
// definition), and arms the crash-reconnect protocol.
func (h *crashHarness) attach() (*Client, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	clientEnd, serverEnd := net.Pipe()
	h.cur.Attach(serverEnd)
	c := NewClient(clientEnd)
	c.Redial = h.redial
	return c, h.cur.Now()
}

// redial is the Client.Redial hook: it refuses while the station is down
// at the requested slot — before the killing window's end, or inside any
// scheduled window — and otherwise attaches a fresh pipe to the current
// (warm-restarted) tower. This is exactly the twin's dial-success rule.
func (h *crashHarness) redial(slot int) (net.Conn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cur == nil || slot < h.up || h.down.DownAt(slot) {
		return nil, fmt.Errorf("station down at slot %d", slot)
	}
	clientEnd, serverEnd := net.Pipe()
	h.cur.Attach(serverEnd)
	return clientEnd, nil
}

// killAndRestore is the SIGKILL-equivalent teardown plus warm restart:
// the tower dies with whatever state it had (closing every socket), and
// a new process boots with a cold registry that the checkpoint overrides.
func (h *crashHarness) killAndRestore(d fault.Downtime) *Server {
	h.t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cur.Close()
	h.cur = nil
	reg, err := epoch.NewRegistry(h.prog)
	if err != nil {
		h.t.Error(err)
		return nil
	}
	s, err := NewAdaptiveServer(reg, h.opts)
	if err != nil {
		h.t.Error(err)
		return nil
	}
	h.cur = s
	h.up = d.EndSlot
	h.kills++
	return s
}

// close tears the harness down.
func (h *crashHarness) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cur != nil {
		h.cur.Close()
	}
}

// drive ticks the tower until the session completes, firing each
// scheduled kill exactly when the broadcast clock reaches its StartSlot
// (the driver checks before every tick, and a tick advances one slot, so
// no window can be skipped). With no connection attached the clock
// holds, so a warm-restarted tower never free-runs past the slots its
// reconnecting client is about to request. stage, when non-nil, is
// invoked once when the clock reaches stageAt — the pre-crash operator
// action whose effect the checkpoint must carry across the kill.
func (h *crashHarness) drive(done <-chan outageOutcome, stageAt int, stage func()) outageOutcome {
	h.t.Helper()
	staged := false
	for {
		select {
		case out := <-done:
			return out
		default:
		}
		h.mu.Lock()
		cur, ki := h.cur, h.kills
		h.mu.Unlock()
		if cur == nil {
			h.t.Fatal("tower lost")
		}
		now := cur.Now()
		if stage != nil && !staged && now >= stageAt {
			stage()
			staged = true
		}
		if ki < len(h.down) && now == h.down[ki].StartSlot {
			if s := h.killAndRestore(h.down[ki]); s != nil && !s.Warm() {
				h.t.Error("restart did not warm-start")
			}
			continue
		}
		if cur.Conns() > 0 {
			if err := cur.Tick(); err != nil {
				h.t.Fatalf("tick: %v", err)
			}
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// TestWarmStartResumesAtBoundary pins the core of the tentpole: a tower
// killed mid-cycle — after an epoch swap — warm-starts at the last
// checkpointed cycle boundary with its span history, swap count and
// epoch counters intact, and the resumed broadcast serves lookups with
// Metrics byte-identical to the uninterrupted analytic timeline.
func TestWarmStartResumesAtBoundary(t *testing.T) {
	p1 := compiled(t, 8, 2, 31, true)
	p2 := compiled(t, 6, 2, 32, true)
	L1, L2 := p1.CycleLen(), p2.CycleLen()
	path := filepath.Join(t.TempDir(), "station.ckpt")

	reg, err := epoch.NewRegistry(p1)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewAdaptiveServer(reg, ServerOptions{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Run(L1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Stage(p2); err != nil {
		t.Fatal(err)
	}
	// The swap lands at slot L1; the kill hits mid-cycle of epoch 2, so
	// the last checkpoint is the boundary L1+L2.
	crashAt := L1 + L2 + 3
	if err := s1.Run(crashAt - L1); err != nil {
		t.Fatal(err)
	}
	if s1.Swaps() != 1 {
		t.Fatalf("swaps before crash = %d, want 1", s1.Swaps())
	}
	s1.Close()

	ckptBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// restore boots a fresh warm server from a pristine copy of the
	// checkpoint (each restored server re-checkpoints as it runs, so a
	// shared file would drift past the crash-time boundary).
	restore := func() *Server {
		t.Helper()
		p := filepath.Join(t.TempDir(), "station.ckpt")
		if err := os.WriteFile(p, ckptBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		regCold, err := epoch.NewRegistry(p1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewAdaptiveServer(regCold, ServerOptions{CheckpointPath: p, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s2 := restore()
	if !s2.Warm() {
		t.Fatal("server did not warm-start from a valid checkpoint")
	}
	if got, want := s2.Now(), L1+L2; got != want {
		t.Fatalf("restored clock %d, want last boundary %d", got, want)
	}
	// No connection was live at swap time, so the stale span compacted
	// away before the checkpoint: the restored history holds only the
	// current epoch's span.
	if got := s2.SpanCount(); got != 1 {
		t.Fatalf("restored span history holds %d spans, want 1", got)
	}
	if got := s2.Swaps(); got != 1 {
		t.Fatalf("restored swap count %d, want 1", got)
	}
	s2.Close()

	// The resumed broadcast is phase-continuous: lookups against a
	// restored tower match the analytic timeline that never crashed.
	// A fresh restore per session keeps the tower clock at the crash
	// point, so the twin's fresh-attach arrival semantics hold.
	tl, err := sim.NewTimeline(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Append(p2, 2, L1); err != nil {
		t.Fatal(err)
	}
	for arrival := L1 + L2; arrival < L1+3*L2; arrival++ {
		for key := int64(1); key <= 6; key++ {
			s2 := restore()
			c := pipeClient(t, s2)
			done := make(chan outageOutcome, 1)
			go func() {
				found, _, m, err := c.Lookup(arrival, key, pw)
				done <- outageOutcome{found, m, err}
			}()
			got := driveUntil(t, s2, done)
			c.Close()
			s2.Close()
			if got.err != nil {
				t.Fatalf("arrival %d key %d: %v", arrival, key, got.err)
			}
			wantM, wantFound, wantErr := tl.QuerySwitch(arrival, key, pw, sim.FaultConfig{})
			if wantErr != nil {
				t.Fatal(wantErr)
			}
			if got.m != wantM || got.found != wantFound {
				t.Fatalf("arrival %d key %d: net %+v/%v != sim %+v/%v",
					arrival, key, got.m, got.found, wantM, wantFound)
			}
		}
	}
}

// TestWarmStartCorruptFallsBackCold pins the fallback: a missing,
// garbage, or torn checkpoint file must not fail construction — the
// server cold-starts at slot 0 from the caller's registry and serves.
func TestWarmStartCorruptFallsBackCold(t *testing.T) {
	p := compiled(t, 8, 2, 31, true)
	dir := t.TempDir()

	// Produce one valid checkpoint to tear.
	path := filepath.Join(dir, "valid.ckpt")
	reg, err := epoch.NewRegistry(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewAdaptiveServer(reg, ServerOptions{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(p.CycleLen()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	torn := filepath.Join(dir, "torn.ckpt")
	if err := os.WriteFile(torn, valid[:len(valid)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.ckpt")
	if err := os.WriteFile(garbage, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, path string
	}{
		{"missing", filepath.Join(dir, "nonexistent.ckpt")},
		{"torn", torn},
		{"garbage", garbage},
	} {
		reg, err := epoch.NewRegistry(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewAdaptiveServer(reg, ServerOptions{CheckpointPath: tc.path, Resume: true})
		if err != nil {
			t.Fatalf("%s: construction failed instead of falling back: %v", tc.name, err)
		}
		if s.Warm() {
			t.Fatalf("%s: warm-started from an invalid checkpoint", tc.name)
		}
		if s.Now() != 0 {
			t.Fatalf("%s: cold start at slot %d, want 0", tc.name, s.Now())
		}
		// The cold-started tower serves: one lookup matches the plain twin.
		c := pipeClient(t, s)
		done := make(chan outageOutcome, 1)
		go func() {
			found, _, m, err := c.Lookup(1, 3, pw)
			done <- outageOutcome{found, m, err}
		}()
		got := driveUntil(t, s, done)
		c.Close()
		s.Close()
		if got.err != nil {
			t.Fatalf("%s: lookup after fallback: %v", tc.name, got.err)
		}
		wantM, wantFound, wantErr := p.QueryKey(1, 3, pw)
		if wantErr != nil {
			t.Fatal(wantErr)
		}
		if got.m != wantM || got.found != wantFound {
			t.Fatalf("%s: net %+v/%v != sim %+v/%v", tc.name, got.m, got.found, wantM, wantFound)
		}
	}
}

// TestRestartLookupMatchesTwin is the tentpole cross-check: for every
// arrival phase and key, a lookup that rides through a station kill and
// warm restart over a real socket reports Metrics byte-identical to
// sim.Timeline.QuerySwitch under the identical (fault seed, downtime
// schedule, backoff seed) — on a perfect medium and on a lossy one with
// channel failover armed.
func TestRestartLookupMatchesTwin(t *testing.T) {
	p := compiled(t, 10, 3, 7, true)
	L := p.CycleLen()
	down := fault.Downtimes{{StartSlot: 2*L + 3, EndSlot: 2*L + 8}}
	bo := fault.Backoff{Seed: 99, Base: 4, Cap: 32}
	const budget = 64

	cases := []struct {
		name    string
		model   fault.Model
		deadAir int
	}{
		{"perfect", fault.Model{}, 0},
		{"lossy", fault.Model{Seed: 5, Drop: 0.2}, sim.DefaultDeadAir},
	}
	for _, tc := range cases {
		rc := sim.FaultConfig{
			Model:      tc.model,
			Downtimes:  down,
			Backoff:    bo,
			MaxRetries: budget,
			DeadAir:    tc.deadAir,
		}
		reconnects := 0
		for arrival := 0; arrival < 3*L; arrival++ {
			for key := int64(1); key <= 10; key++ {
				wantM, wantFound, wantErr := staticTimeline(t, p).QuerySwitch(arrival, key, pw, rc)
				if wantErr != nil && !errors.Is(wantErr, fault.ErrRetryBudget) {
					t.Fatalf("%s arrival %d key %d: sim: %v", tc.name, arrival, key, wantErr)
				}

				h := newCrashHarness(t, p, down, ServerOptions{Faults: tc.model})
				c, _ := h.attach()
				c.MaxRetries = budget
				c.Backoff = bo
				if tc.deadAir > 0 {
					c.DeadAir, c.Channels = tc.deadAir, p.Channels()
				}
				done := make(chan outageOutcome, 1)
				go func() {
					found, _, m, err := c.Lookup(arrival, key, pw)
					done <- outageOutcome{found, m, err}
				}()
				got := h.drive(done, 0, nil)
				c.Close()
				h.close()
				checkOutcome(t, fmt.Sprintf("%s arrival %d key %d", tc.name, arrival, key),
					got, wantM, wantFound, wantErr)
				reconnects += got.m.Reconnects
			}
		}
		if reconnects == 0 {
			t.Fatalf("%s: no session ever reconnected; the pin is vacuous", tc.name)
		}
	}
}

// TestRestartAcrossSwapMatchesTwin composes the two adaptive mechanisms:
// an epoch swap lands before the kill, so the checkpoint carries the
// swapped program and its two-span history across the crash, and every
// session — including ones whose descent straddles the swap AND the
// kill — matches the analytic timeline byte for byte.
func TestRestartAcrossSwapMatchesTwin(t *testing.T) {
	p1 := compiled(t, 10, 3, 1, true)
	p2 := compiled(t, 8, 3, 2, true)
	L1 := p1.CycleLen()
	stageAt := L1 + 1 // swap lands at 2*L1
	down := fault.Downtimes{{StartSlot: 2*L1 + 3, EndSlot: 2*L1 + 7}}
	bo := fault.Backoff{Seed: 41, Base: 4, Cap: 32}
	const budget = 64

	tl, err := sim.NewTimeline(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	swap, err := tl.Append(p2, 2, stageAt)
	if err != nil {
		t.Fatal(err)
	}
	if swap != 2*L1 {
		t.Fatalf("swap at %d, want %d", swap, 2*L1)
	}
	rc := sim.FaultConfig{Downtimes: down, Backoff: bo, MaxRetries: budget}

	restarts, reconnects := 0, 0
	for arrival := 0; arrival < 3*L1; arrival++ {
		for key := int64(1); key <= 10; key++ {
			wantM, wantFound, wantErr := tl.QuerySwitch(arrival, key, pw, rc)
			if wantErr != nil && !errors.Is(wantErr, fault.ErrRetryBudget) {
				t.Fatalf("arrival %d key %d: sim: %v", arrival, key, wantErr)
			}

			h := newCrashHarness(t, p1, down, ServerOptions{})
			c, _ := h.attach()
			c.MaxRetries = budget
			c.Backoff = bo
			done := make(chan outageOutcome, 1)
			go func() {
				found, _, m, err := c.Lookup(arrival, key, pw)
				done <- outageOutcome{found, m, err}
			}()
			got := h.drive(done, stageAt, func() {
				h.mu.Lock()
				reg := h.cur.reg
				h.mu.Unlock()
				if _, err := reg.Stage(p2); err != nil {
					t.Errorf("stage: %v", err)
				}
			})
			c.Close()
			h.close()
			checkOutcome(t, fmt.Sprintf("arrival %d key %d", arrival, key),
				got, wantM, wantFound, wantErr)
			restarts += got.m.Restarts
			reconnects += got.m.Reconnects
		}
	}
	if restarts == 0 || reconnects == 0 {
		t.Fatalf("sweep saw %d restarts, %d reconnects; want both > 0", restarts, reconnects)
	}
}

// TestRangeRestartMatchesTwin pins the range-scan arm of the reconnect
// protocol: a scan cut by a kill — during the probe, the sync jump, or a
// frontier read — reconnects under the seeded backoff, discards its
// partial key set, and re-scans from the reconnect slot, finishing with
// keys and Metrics byte-identical to sim.Timeline.QueryRangeRestart.
func TestRangeRestartMatchesTwin(t *testing.T) {
	p := compiled(t, 10, 3, 7, true)
	L := p.CycleLen()
	down := fault.Downtimes{{StartSlot: L + 2, EndSlot: L + 6}}
	bo := fault.Backoff{Seed: 13, Base: 3, Cap: 24}
	const budget = 64
	rc := sim.FaultConfig{Downtimes: down, Backoff: bo, MaxRetries: budget}

	tl, err := sim.NewTimeline(p, 1)
	if err != nil {
		t.Fatal(err)
	}

	type rangeOutcome struct {
		keys []int64
		m    sim.Metrics
		err  error
	}
	reconnects := 0
	for arrival := 0; arrival < 2*L; arrival++ {
		for _, rg := range [][2]int64{{3, 7}, {1, 10}, {6, 6}} {
			want, wantErr := tl.QueryRangeSwitch(arrival, rg[0], rg[1], pw, rc)
			if wantErr != nil && !errors.Is(wantErr, fault.ErrRetryBudget) {
				t.Fatalf("arrival %d range %v: sim: %v", arrival, rg, wantErr)
			}

			h := newCrashHarness(t, p, down, ServerOptions{})
			c, _ := h.attach()
			c.MaxRetries = budget
			c.Backoff = bo
			rdone := make(chan rangeOutcome, 1)
			done := make(chan outageOutcome, 1)
			go func() {
				keys, m, err := c.LookupRange(arrival, rg[0], rg[1], pw)
				rdone <- rangeOutcome{keys, m, err}
				done <- outageOutcome{m: m, err: err}
			}()
			h.drive(done, 0, nil)
			got := await(t, rdone)
			c.Close()
			h.close()

			label := fmt.Sprintf("arrival %d range %v", arrival, rg)
			if (got.err != nil) != (wantErr != nil) {
				t.Fatalf("%s: net err %v, sim err %v", label, got.err, wantErr)
			}
			if wantErr != nil && !errors.Is(got.err, fault.ErrRetryBudget) {
				t.Fatalf("%s: net err %v, want ErrRetryBudget", label, got.err)
			}
			if got.m != want.Metrics {
				t.Fatalf("%s: net %+v != sim %+v", label, got.m, want.Metrics)
			}
			if len(got.keys) != len(want.Keys) {
				t.Fatalf("%s: net keys %v != sim keys %v", label, got.keys, want.Keys)
			}
			for i := range got.keys {
				if got.keys[i] != want.Keys[i] {
					t.Fatalf("%s: net keys %v != sim keys %v", label, got.keys, want.Keys)
				}
			}
			reconnects += got.m.Reconnects
		}
	}
	if reconnects == 0 {
		t.Fatal("no range scan ever reconnected; the pin is vacuous")
	}
}

// TestBatchReconnect pins crash tolerance of batch retrieval: a plan
// whose execution is cut by a kill completes on the warm-restarted
// tower after reconnecting, every key intact; and the exact same session
// under a budget one short of its need fails with fault.ErrRetryBudget.
func TestBatchReconnect(t *testing.T) {
	p := compiled(t, 9, 2, 21, false)
	targets := p.Tree().DataIDs()[1:6]
	plan, err := retrieval.New(retrieval.Config{}).PlanBatch(p, 0, targets)
	if err != nil {
		t.Fatal(err)
	}
	down := fault.Downtimes{{StartSlot: 3, EndSlot: 7}}
	bo := fault.Backoff{Seed: 17, Base: 2, Cap: 16}

	run := func(budget int) (sim.Metrics, error) {
		h := newCrashHarness(t, p, down, ServerOptions{})
		defer h.close()
		c, _ := h.attach()
		defer c.Close()
		c.MaxRetries = budget
		c.Backoff = bo
		done := make(chan outageOutcome, 1)
		go func() {
			m, err := c.ReadBatch(plan, pw)
			done <- outageOutcome{m: m, err: err}
		}()
		out := h.drive(done, 0, nil)
		return out.m, out.err
	}

	m, err := run(64)
	if err != nil {
		t.Fatalf("batch across a kill: %v", err)
	}
	if m.Reconnects < 1 {
		t.Fatalf("batch rode through the kill without reconnecting: %+v", m)
	}
	need := m.Retries + m.Restarts + m.Failovers + m.Reconnects
	if need < 1 {
		t.Fatalf("session consumed no budget: %+v", m)
	}

	// Exactly enough budget: the identical deterministic session succeeds.
	if m2, err := run(need); err != nil || m2 != m {
		t.Fatalf("exact-need run: m %+v err %v, want %+v nil", m2, err, m)
	}
	// One short: terminal budget exhaustion.
	if _, err := run(need - 1); !errors.Is(err, fault.ErrRetryBudget) {
		t.Fatalf("need-1 run: %v, want ErrRetryBudget", err)
	}
}

// TestCrashRestartSoak is the endurance pin, run under -race by
// scripts/check.sh: fifty SIGKILL-equivalent teardowns mid-cycle, each
// warm-restarted from the latest checkpoint, with back-to-back client
// sessions riding through every crash. Each session must match its
// analytic twin byte for byte (born on a schedule trimmed to the windows
// still ahead of it), the observability ledger must account every kill,
// no goroutine may leak, and the span history must stay bounded.
func TestCrashRestartSoak(t *testing.T) {
	const kills = 50
	p := compiled(t, 8, 2, 3, true)
	L := p.CycleLen()
	bo := fault.Backoff{Seed: 7, Base: 2, Cap: 16}
	const budget = 64
	down, err := fault.GenDowntimes(11, kills, kills*(64+4*L)*2, 3, 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(down) != kills {
		t.Fatalf("schedule holds %d windows, want %d (grow the horizon)", len(down), kills)
	}

	before := runtime.NumGoroutine()
	r := obs.New()
	h := newCrashHarness(t, p, down, ServerOptions{Obs: r, CheckpointEvery: 2})
	rcBase := sim.FaultConfig{Backoff: bo, MaxRetries: budget}

	sessions, reconnects, exhausted := 0, 0, 0
	for {
		h.mu.Lock()
		fired := h.kills
		h.mu.Unlock()
		if fired >= kills {
			break
		}
		if sessions > 5000 {
			t.Fatalf("%d sessions drove only %d/%d kills", sessions, fired, kills)
		}
		c, at := h.attach()
		c.MaxRetries = budget
		c.Backoff = bo
		c.Instrument(r)
		key := int64(sessions%8 + 1)

		// The twin for a mid-broadcast session: windows already fired
		// cannot kill a connection born after them, so its schedule is
		// the remaining suffix.
		rc := rcBase
		rc.Downtimes = down[fired:]
		wantM, wantFound, wantErr := staticTimeline(t, p).QuerySwitch(at, key, pw, rc)
		if wantErr != nil && !errors.Is(wantErr, fault.ErrRetryBudget) {
			t.Fatalf("session %d: sim: %v", sessions, wantErr)
		}

		done := make(chan outageOutcome, 1)
		go func() {
			found, _, m, err := c.Lookup(at, key, pw)
			done <- outageOutcome{found, m, err}
		}()
		got := h.drive(done, 0, nil)
		c.Close()
		checkOutcome(t, fmt.Sprintf("session %d (arrival %d key %d)", sessions, at, key),
			got, wantM, wantFound, wantErr)
		sessions++
		reconnects += got.m.Reconnects
		if got.err != nil {
			exhausted++
		}
	}

	h.mu.Lock()
	final := h.cur
	h.mu.Unlock()
	if got := final.SpanCount(); got != 1 {
		t.Fatalf("span history grew to %d entries with no swaps", got)
	}
	h.close()

	if reconnects < kills {
		t.Fatalf("%d client reconnects across %d kills; every kill drops the in-flight session", reconnects, kills)
	}
	if got := r.Counter("netcast_warm_starts_total").Value(); got != kills {
		t.Fatalf("netcast_warm_starts_total = %d, want %d", got, kills)
	}
	if got := r.Counter("netcast_checkpoints_total").Value(); got == 0 {
		t.Fatal("netcast_checkpoints_total = 0")
	}
	if got := r.Counter("client_reconnects_total").Value(); got != int64(reconnects) {
		t.Fatalf("client_reconnects_total = %d, want %d", got, reconnects)
	}
	t.Logf("soak: %d sessions, %d kills, %d reconnects, %d exhausted", sessions, kills, reconnects, exhausted)

	// Goroutine hygiene: everything the harness spawned has drained.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
