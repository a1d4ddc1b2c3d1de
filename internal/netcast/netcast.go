// Package netcast serves a compiled broadcast program over real network
// connections, completing the system picture: the same wire-encoded
// buckets the simulator models are framed onto TCP (or any net.Conn), and
// a remote client performs lookups knowing nothing but the protocol.
//
// The protocol models a radio receiver honestly: the client does not
// stream every slot — it asks for exactly one (channel, absolute slot)
// wake-up at a time and receives exactly that bucket, so tuning time is
// the number of frames on the wire. Requests and frames are big-endian:
//
//	request:  channel uint8 | slot uint32   (channel 0 detaches)
//	frame:    slot uint32 | length uint16 | bucket payload
//
// The server's clock advances via Tick/Run. Tick synchronizes with the
// connected clients — it waits until every registered connection either
// has a pending wake-up or has detached — which makes lookups over real
// sockets deterministic and lets the tests assert byte-identical metrics
// against the analytic simulator.
//
// The medium may be imperfect: ServerOptions.Faults is the seeded
// lossy-channel model (frame loss, bit corruption, delivery stalls), and
// Tick, which knows the (channel, slot) every frame answers, decides each
// frame's fate from it when it builds the frame. The client recovers by
// re-tuning to the same cycle slot on the next broadcast cycle, under a
// bounded retry budget. The server itself is hardened against
// misbehaving clients: frame writes carry deadlines, and connections
// that neither request nor detach within a grace period are evicted
// instead of wedging the broadcast clock.
//
// Whole channels may also fail: ServerOptions.Outages darkens scheduled
// windows of (channel, slot) pairs, during which the tower transmits
// lost-slot frames on the dark channel — dead air a client detects purely
// from slot arithmetic, never from wall time. A missed-tick watchdog
// inside the server debounces the same windows into live-set changes and
// hands them to ServerOptions.OnLiveChange, so an operator loop can
// replan the broadcast onto the surviving channels and stage the result
// for the next cycle-boundary swap. The tower's clock is the analytic
// twin's: the watchdog is a fault.Watchdog, stepped once per aired slot
// as fault.Outages.Detections steps it, and the epoch span history —
// where a staged epoch lands, when a passed slot airs again — is a
// sim.History, as in sim.Timeline. Clients
// arm failover with Client.DeadAir: after that many consecutive unusable
// reads on one channel they re-tune to their current belief of the root
// channel (refreshed from the RootChannel stamp of every bucket they
// read) and restart the descent, charging the shared retry budget.
package netcast

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/epoch"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/wire"
)

// detachChannel is the channel byte that ends a client's session.
const detachChannel = 0

// DefaultWatchdog is the missed-tick threshold of the server's channel
// health tracker when ServerOptions does not set one: a channel is marked
// dark after this many consecutive dark slots and healthy again after as
// many consecutive live ones. It equals sim.DefaultDeadAir so the tower's
// detector and the clients' failover trigger agree on what "dead" means.
const DefaultWatchdog = 3

// stallDelay is how long a Stall outcome holds back a frame write. The
// stall counts against the write deadline, so a WriteTimeout shorter
// than the stall fails the write and closes the connection.
const stallDelay = time.Millisecond

// ServerOptions hardens and degrades the broadcast medium.
type ServerOptions struct {
	// Faults is the deterministic lossy-channel model Tick draws every
	// frame's fate from, keyed by the (channel, slot) it answers: Drop
	// sends a lost-slot frame, Corrupt flips one payload bit, Stall holds
	// the write back by stallDelay. The zero model is a perfect medium.
	Faults fault.Model
	// Grace evicts a connection that neither has a wake-up pending nor
	// detaches for this long while the clock wants to advance. Defaults
	// to 30s; negative disables eviction (the pre-robustness behavior).
	Grace time.Duration
	// WriteTimeout bounds each frame write, a stall included; a
	// connection that cannot absorb a frame in time is closed. Defaults
	// to 5s; negative disables the deadline.
	WriteTimeout time.Duration
	// Outages darkens whole channels for scheduled windows of absolute
	// slots: a delivery whose (channel, slot) falls inside a window is
	// replaced by a lost-slot frame. The schedule is plain data shared
	// with the analytic simulator, so both observe the same realization.
	Outages fault.Outages
	// Watchdog is the missed-tick debounce of the channel health tracker:
	// a channel is marked dark after Watchdog consecutive dark slots and
	// healthy after as many live ones (0 = DefaultWatchdog, negative
	// disables detection; dark channels still transmit dead air).
	Watchdog int
	// OnLiveChange, when non-nil, is invoked whenever the watchdog's
	// live-channel set changes, with the sorted surviving channels and the
	// detection slot. It runs on the Tick goroutine with the server lock
	// held — before the detection slot airs, so a program staged from the
	// callback can swap at that very slot's cycle boundary — and must not
	// call back into the Server.
	OnLiveChange func(live []int, slot int)
	// CheckpointPath, when non-empty, makes the tower persist its
	// recovery state — clock, span history, registry counters and the
	// exact wire packets of the active and any pending epoch — to this
	// file at cycle boundaries. Writes are atomic (temp file + rename),
	// happen outside the broadcast lock, and a failed write never stalls
	// the air.
	CheckpointPath string
	// CheckpointEvery thins the checkpoint cadence: state is written at
	// every CheckpointEvery-th cycle boundary (0 or 1 = every boundary).
	// A sparser cadence costs more replayed slots after a crash.
	CheckpointEvery int
	// Resume arms the warm-start path of NewAdaptiveServer: when the
	// file at CheckpointPath holds a valid checkpoint, the server
	// restores the registry and resumes airing at the checkpointed
	// boundary instead of starting cold at slot 0. A missing or corrupt
	// checkpoint falls back to a cold start from the caller's registry.
	Resume bool
	// Obs, when non-nil, receives the server's metrics and trace events
	// (ticks, frames, requests, evictions, epoch swaps, span history).
	// Observation never changes behavior: a nil registry costs one
	// predictable nil check per instrument touch.
	Obs *obs.Registry
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.Grace == 0 {
		o.Grace = 30 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.Watchdog == 0 {
		o.Watchdog = DefaultWatchdog
	}
	return o
}

// Server broadcasts to any number of connections the current epoch of a
// registry, and promotes staged successors at cycle boundaries — never
// mid-cycle — without ever skipping a broadcast slot. A static tower
// (NewServerOpts) is one whose registry never has anything staged.
type Server struct {
	opts ServerOptions
	ln   net.Listener
	// reg is the double-buffered program store the tower swaps from at
	// cycle boundaries.
	reg *epoch.Registry

	mu      sync.Mutex
	cond    *sync.Cond
	prog    *sim.Program
	packets [][][]byte
	// spans is the epoch span history the catch-up of a re-requested
	// past slot and the swap landing read; its last span is the program
	// on the air. Swaps compact it down to what live connections can
	// still re-request.
	spans   sim.History
	swaps   int
	now     int
	conns   map[net.Conn]*connState
	evicted int
	done    bool
	// waiting counts the registered connections with no wake-up pending:
	// the ones Tick must wait for or evict. nextDue is a lower bound on
	// the earliest pending slot, exact after every full tick and lowered
	// by every request. Together they let Tick air a slot nobody is
	// tuned to without scanning the connections.
	waiting int
	nextDue int
	// warm marks a server that restored its state from a checkpoint;
	// boundaries counts the cycle boundaries seen since construction, the
	// clock of the CheckpointEvery cadence.
	warm       bool
	boundaries int

	// dog is the missed-tick watchdog over ServerOptions.Outages. Its
	// width is the channel count, which epoch swaps preserve (the
	// registry enforces it, and survivor replans are remapped back to
	// full width).
	dog *fault.Watchdog

	om serverObs

	wg sync.WaitGroup
}

// serverObs bundles the server's instrument handles. With no registry
// attached every handle is nil and records nothing.
type serverObs struct {
	reg         *obs.Registry
	ticks       *obs.Counter
	frames      *obs.Counter
	requests    *obs.Counter
	evictions   *obs.Counter
	swaps       *obs.Counter
	attached    *obs.Counter
	outages     *obs.Counter
	recoveries  *obs.Counter
	replans     *obs.Counter
	checkpoints *obs.Counter
	warmStarts  *obs.Counter
	conns       *obs.Gauge
	spans       *obs.Gauge
	clock       *obs.Gauge
	live        *obs.Gauge
}

func newServerObs(r *obs.Registry) serverObs {
	return serverObs{
		reg:         r,
		ticks:       r.Counter("netcast_ticks_total"),
		frames:      r.Counter("netcast_frames_total"),
		requests:    r.Counter("netcast_requests_total"),
		evictions:   r.Counter("netcast_evictions_total"),
		swaps:       r.Counter("netcast_swaps_total"),
		attached:    r.Counter("netcast_conns_attached_total"),
		outages:     r.Counter("netcast_outages_total"),
		recoveries:  r.Counter("netcast_recoveries_total"),
		replans:     r.Counter("netcast_replans_total"),
		checkpoints: r.Counter("netcast_checkpoints_total"),
		warmStarts:  r.Counter("netcast_warm_starts_total"),
		conns:       r.Gauge("netcast_conns"),
		spans:       r.Gauge("netcast_spans"),
		clock:       r.Gauge("netcast_now"),
		live:        r.Gauge("netcast_channels_live"),
	}
}

type connState struct {
	hasPending bool
	channel    int
	slot       int
	// floor is the oldest slot this connection may still request: the
	// clock at attach (a radio cannot arrive in the past), raised to every
	// slot it has requested since (a retry re-requests the slot it just
	// heard garbage on; a descent or sync only moves forward). Spans that
	// ended before every connection's floor can never serve a catch-up
	// again, so a swap compacts them away.
	floor int
	// idleSince is when the connection last became request-less; the
	// Grace eviction clock measures from here.
	idleSince time.Time
	// frame is reused by every delivery to this connection: Tick waits
	// for its writes before it returns, so no frame is still in flight
	// when the next one is encoded.
	frame []byte
}

// NewServerOpts broadcasts one compiled program forever: an adaptive
// server over a fresh registry holding p as epoch 1. Attach or Serve
// bring connections.
func NewServerOpts(p *sim.Program, opts ServerOptions) (*Server, error) {
	reg, err := epoch.NewRegistry(p)
	if err != nil {
		return nil, err
	}
	return NewAdaptiveServer(reg, opts)
}

// NewAdaptiveServer serves the registry's current epoch and promotes a
// staged successor at the next cycle boundary of the outgoing program.
//
// With ServerOptions.Resume set and a valid checkpoint at CheckpointPath,
// the server warm-starts instead: it restores the checkpointed registry
// (epoch IDs and counters continue where they left off), the span
// history, and the slot clock, and resumes airing at the checkpointed
// cycle boundary — so the absolute slot arithmetic of reconnecting
// clients never skips or rewinds. Any failure to load or restore the
// checkpoint falls back to a cold start from the caller's registry.
func NewAdaptiveServer(reg *epoch.Registry, opts ServerOptions) (*Server, error) {
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Outages.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		reg:     reg,
		opts:    opts.withDefaults(),
		conns:   map[net.Conn]*connState{},
		nextDue: math.MaxInt,
		om:      newServerObs(opts.Obs),
	}
	if opts.Resume && opts.CheckpointPath != "" {
		s.tryWarmStart(opts.CheckpointPath)
	}
	if !s.warm {
		cur := reg.Current()
		s.prog, s.packets = cur.Prog, cur.Packets
		s.spans = sim.History{{Start: 0, CycleLen: cur.Prog.CycleLen()}}
	}
	// After a warm start the watchdog starts accounting at the restored
	// clock: the darkness of slots aired before the crash was already
	// detected (and any replan it triggered was checkpointed), so
	// replaying it would re-fire OnLiveChange for transitions the
	// operator already handled.
	s.dog = fault.NewWatchdog(s.opts.Outages, s.prog.Channels(), s.opts.Watchdog, s.now)
	s.om.live.Set(int64(s.prog.Channels()))
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// tryWarmStart restores the server's recovery state from the checkpoint
// at path. On any failure — missing file, torn write, checksum mismatch,
// inconsistent contents — it leaves the server untouched so construction
// proceeds as a cold start.
func (s *Server) tryWarmStart(path string) {
	c, err := epoch.LoadCheckpoint(path)
	if err != nil {
		s.om.reg.Emit("cold_fallback", obs.A("slot", 0))
		return
	}
	reg, err := epoch.RestoreRegistry(c)
	if err != nil {
		s.om.reg.Emit("cold_fallback", obs.A("slot", int64(c.Now)))
		return
	}
	cur := reg.Current()
	s.reg = reg
	s.prog, s.packets = cur.Prog, cur.Packets
	s.now = c.Now
	s.spans = c.Spans
	s.swaps = c.Swapped
	s.warm = true
	s.om.warmStarts.Inc()
	s.om.reg.Emit("warm_start",
		obs.A("slot", int64(c.Now)),
		obs.A("spans", int64(len(c.Spans))),
		obs.A("epoch", int64(cur.ID)))
}

// Serve accepts connections from ln until the server is closed.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.Attach(conn)
		}
	}()
}

// Attach registers a single connection (useful with net.Pipe).
func (s *Server) Attach(conn net.Conn) {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = &connState{floor: s.now, idleSince: time.Now()}
	s.waiting++
	s.om.attached.Inc()
	s.om.conns.Set(int64(len(s.conns)))
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.handle(conn)
	}()
}

// handle reads wake-up requests until the connection detaches or fails.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		s.dropLocked(conn)
		s.cond.Broadcast()
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	var req [requestSize]byte
	for {
		if _, err := readRequest(br, req[:]); err != nil {
			return
		}
		channel, slot := parseRequest(req[:])
		if channel == detachChannel {
			return
		}
		s.mu.Lock()
		if channel > s.prog.Channels() {
			s.mu.Unlock()
			return
		}
		st := s.conns[conn]
		if st == nil {
			s.mu.Unlock()
			return
		}
		s.om.requests.Inc()
		// The requested slot raises the connection's floor: the protocol
		// never asks for a slot before the last one it requested, so span
		// history older than every floor is compactable.
		if slot > st.floor {
			st.floor = slot
		}
		if !st.hasPending {
			s.waiting--
		}
		slot = s.spans.CatchUp(slot, s.now)
		s.nextDue = min(s.nextDue, slot)
		st.hasPending = true
		st.channel = channel
		st.slot = slot
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// dropLocked unregisters conn, keeping the waiting count exact. A
// connection already gone — evicted before its handler exited — is left
// alone.
func (s *Server) dropLocked(conn net.Conn) {
	st, ok := s.conns[conn]
	if !ok {
		return
	}
	if !st.hasPending {
		s.waiting--
	}
	delete(s.conns, conn)
	s.om.conns.Set(int64(len(s.conns)))
}

// evictSilentLocked detaches every request-less connection that has been
// silent for the grace period and returns how long until the next one's
// grace expires (0 when eviction is disabled or nothing is left to wait
// on).
func (s *Server) evictSilentLocked() time.Duration {
	if s.opts.Grace <= 0 {
		return 0
	}
	var wake time.Duration
	now := time.Now()
	for conn, st := range s.conns {
		if st.hasPending {
			continue
		}
		if idle := now.Sub(st.idleSince); idle >= s.opts.Grace {
			// The connection neither requested nor detached in time:
			// detach it forcibly. Close unblocks its handler, which
			// finishes the cleanup.
			s.dropLocked(conn)
			s.evicted++
			s.om.evictions.Inc()
			s.om.reg.Emit("evict", obs.A("slot", int64(s.now)))
			conn.Close()
		} else if rest := s.opts.Grace - idle; wake == 0 || rest < wake {
			wake = rest
		}
	}
	return wake
}

// boundaryLocked reports whether slot now opens a cycle of the on-air
// program: the only slots where a staged epoch can swap in or a
// checkpoint can be taken.
func (s *Server) boundaryLocked(now int) bool {
	return s.spans.Boundary(now) == now
}

// boundaryWorkLocked reports whether slot now is a cycle boundary with
// something to do: a staged epoch to swap in or a checkpoint to take.
func (s *Server) boundaryWorkLocked(now int) bool {
	if !s.boundaryLocked(now) {
		return false
	}
	_, staged := s.reg.Pending()
	return staged || s.opts.CheckpointPath != ""
}

// Tick broadcasts the current slot and advances the clock. It waits until
// every registered connection has a pending wake-up (or has detached), so
// a lookup in flight can never miss its slot — but a connection that
// stays silent past the grace period is evicted rather than allowed to
// wedge the broadcast clock, and a connection that cannot absorb its
// frame within the write timeout is closed.
//
// A slot nobody is tuned to costs O(1) in the connection count: when
// every connection has a wake-up pending for a later slot, no outage
// schedule is armed, and the slot is not a cycle boundary with an epoch
// staged or a checkpoint due, Tick only advances the clock. Every other
// slot takes the full path, the only one that delivers frames, evicts,
// swaps epochs, takes checkpoints or runs the watchdog.
//
// Tick alone decides what each due connection hears: the bucket on air,
// a lost-slot frame when the channel is dark or the fault model drops
// the slot, the bucket with one bit flipped when it corrupts it, or the
// bucket held back by stallDelay when it stalls it.
//
// Tick is driven from one goroutine; it returns only after the slot's
// frame writes have finished.
func (s *Server) Tick() error {
	s.mu.Lock()
	for !s.done && s.waiting > 0 {
		wake := s.evictSilentLocked()
		if s.waiting == 0 {
			break
		}
		if wake > 0 {
			// sync.Cond has no timed wait; arm a broadcast for the
			// earliest grace expiry so the eviction loop re-runs.
			t := time.AfterFunc(wake+time.Millisecond, s.cond.Broadcast)
			s.cond.Wait()
			t.Stop()
		} else {
			s.cond.Wait()
		}
	}
	if s.done {
		s.mu.Unlock()
		return fmt.Errorf("netcast: server closed")
	}
	now := s.now
	// Nobody is tuned to this slot. An armed outage schedule still takes
	// the full path: the watchdog must account every slot before it airs.
	// So does a cycle boundary with an epoch to swap in or a checkpoint
	// to take.
	if now < s.nextDue && !s.opts.Outages.Enabled() && !s.boundaryWorkLocked(now) {
		s.now++
		s.om.ticks.Inc()
		s.om.clock.Set(int64(s.now))
		s.mu.Unlock()
		return nil
	}
	// Step the watchdog over every slot aired since the last tick, so its
	// view is of slot now — before the swap check, so a program staged by
	// the OnLiveChange callback can land at this very slot if it is a
	// cycle boundary.
	for s.dog.Armed() && s.dog.At() < now {
		if t, changed := s.dog.Step(s.flipLocked); changed {
			live := s.dog.Live()
			s.om.live.Set(int64(len(live)))
			if s.opts.OnLiveChange != nil {
				s.om.replans.Inc()
				s.opts.OnLiveChange(live, t)
			}
		}
	}
	// A staged epoch lands exactly at a cycle boundary of the outgoing
	// program — the no-mid-cycle-swap invariant (DESIGN.md §8). The swap
	// replaces what subsequent slots carry; it never stalls or skips the
	// slot clock.
	if s.boundaryLocked(now) {
		if e, swapped := s.reg.TrySwap(); swapped {
			s.prog, s.packets = e.Prog, e.Packets
			s.spans = append(s.spans, sim.Span{Start: now, CycleLen: e.Prog.CycleLen()})
			s.swaps++
			// Swap time is when stale spans retire: compact the history
			// down to the oldest slot a live connection may still request,
			// the clock itself when none is attached.
			floor := now
			for _, st := range s.conns {
				floor = min(floor, st.floor)
			}
			s.spans.Compact(floor)
			s.om.spans.Set(int64(len(s.spans)))
			s.om.swaps.Inc()
			s.om.reg.Emit("swap",
				obs.A("epoch", int64(e.ID)),
				obs.A("slot", int64(now)),
				obs.A("spans", int64(len(s.spans))))
		}
	}
	// Capture the recovery state at cycle boundaries — after the swap
	// check, so a checkpoint taken at a swap slot records the program
	// that actually airs from here. Only the in-memory snapshot happens
	// under the lock; the file write runs after it is released.
	ckpt := s.checkpointLocked(now)
	type delivery struct {
		conn  net.Conn
		frame []byte
		stall bool
	}
	var due []delivery
	var delivered time.Time
	next := math.MaxInt
	onAir := s.spans[len(s.spans)-1]
	for conn, st := range s.conns {
		if !st.hasPending {
			continue
		}
		if st.slot != now {
			next = min(next, st.slot)
			continue
		}
		cycleSlot := (now-onAir.Start)%onAir.CycleLen + 1
		payload := s.packets[st.channel-1][cycleSlot-1]
		// The fault outcome is drawn even on a dark slot, as the analytic
		// twin draws it. A dark channel transmits dead air: the client
		// wakes on time and hears a lost-slot frame, so outage detection
		// stays a pure function of slot arithmetic on both ends of the
		// wire. A dropped slot sounds the same.
		o := s.opts.Faults.At(st.channel, now)
		if o == fault.Drop || s.opts.Outages.DarkAt(st.channel, now) {
			payload = nil
		}
		frame, err := appendFrame(st.frame[:0], now, payload)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		// Corruption flips a bit of this connection's copy of the frame,
		// never of the shared packet; the wire CRC catches it.
		if o == fault.Corrupt && len(payload) > 0 {
			bit := s.opts.Faults.BitIndex(st.channel, now, 8*len(payload))
			frame[frameHeaderSize+bit/8] ^= 1 << (bit % 8)
		}
		st.frame = frame
		due = append(due, delivery{conn, frame, o == fault.Stall})
		st.hasPending = false
		s.waiting++
		if delivered.IsZero() {
			delivered = time.Now()
		}
		st.idleSince = delivered
	}
	s.nextDue = next
	s.now++
	s.om.ticks.Inc()
	s.om.clock.Set(int64(s.now))
	s.om.frames.Add(int64(len(due)))
	s.mu.Unlock()

	if ckpt != nil {
		// A failed write is an operational problem, not a broadcast one:
		// the air never stalls for the disk, and the previous checkpoint
		// (if any) survives intact thanks to the atomic replace.
		if err := epoch.WriteCheckpoint(s.opts.CheckpointPath, ckpt); err == nil {
			s.om.checkpoints.Inc()
			s.om.reg.Emit("checkpoint",
				obs.A("slot", int64(ckpt.Now)),
				obs.A("spans", int64(len(ckpt.Spans))))
		} else {
			s.om.reg.Emit("checkpoint_failed", obs.A("slot", int64(ckpt.Now)))
		}
	}

	// Deliveries run concurrently under a write deadline: one stalled or
	// dead client costs at most WriteTimeout, not the broadcast forever,
	// and cannot delay the frames of healthy clients. A stall counts
	// against the deadline: it is fixed before the stall and armed after
	// it, so a deadline shorter than stallDelay has passed when armed and
	// the write fails at once.
	var wg sync.WaitGroup
	for _, d := range due {
		wg.Add(1)
		go func(d delivery) {
			defer wg.Done()
			start := time.Now()
			if d.stall {
				time.Sleep(stallDelay)
			}
			if s.opts.WriteTimeout > 0 {
				d.conn.SetWriteDeadline(start.Add(s.opts.WriteTimeout))
			}
			if _, err := d.conn.Write(d.frame); err != nil {
				// A broken client must not stall the broadcast: close
				// it so its handler cleans up the registration.
				d.conn.Close()
			}
		}(d)
	}
	wg.Wait()
	return nil
}

// flipLocked records one channel's watchdog verdict change entering slot.
func (s *Server) flipLocked(ch, slot int, dark bool) {
	c, at := obs.A("channel", int64(ch)), obs.A("slot", int64(slot))
	if dark {
		s.om.outages.Inc()
		s.om.reg.Emit("outage", c, at)
	} else {
		s.om.recoveries.Inc()
		s.om.reg.Emit("recovery", c, at)
	}
}

// checkpointLocked assembles the recovery state to persist for slot now,
// or nil when no checkpoint is due: the server must have a
// CheckpointPath, now must be a cycle boundary of the active program, and
// the boundary must match the CheckpointEvery cadence. The snapshot is
// pure memory (packets are shared, immutable); the caller writes the file
// after releasing the lock.
func (s *Server) checkpointLocked(now int) *epoch.Checkpoint {
	if s.opts.CheckpointPath == "" || !s.boundaryLocked(now) {
		return nil
	}
	every := s.opts.CheckpointEvery
	if every < 1 {
		every = 1
	}
	due := s.boundaries%every == 0
	s.boundaries++
	if !due {
		return nil
	}
	return s.reg.CheckpointState(now, s.spans)
}

// ChannelsLive returns the channels the watchdog currently believes
// healthy (all of them when outage detection is disabled or idle).
func (s *Server) ChannelsLive() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dog.Live()
}

// Run ticks the server the given number of slots.
func (s *Server) Run(slots int) error {
	for i := 0; i < slots; i++ {
		if err := s.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// Now returns the server clock.
func (s *Server) Now() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Evicted returns how many connections the grace-period policy detached.
func (s *Server) Evicted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Swaps returns how many epoch swaps have landed on the air.
func (s *Server) Swaps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.swaps
}

// Warm reports whether this server restored its state from a checkpoint
// instead of starting cold at slot 0.
func (s *Server) Warm() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warm
}

// Conns returns how many connections are currently registered. Crash
// drivers poll it to tick only while a client is actually attached, so a
// warm-restarted tower does not free-run past the slots a reconnecting
// client is about to request.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// SpanCount returns how many epoch spans the server currently retains
// for cyclic catch-up. On a long-running adaptive server this stays
// bounded by the connection churn window, not the swap count.
func (s *Server) SpanCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spans)
}

// AwaitConns blocks until at least n connections are registered (or the
// server closes). Drivers call it before ticking so concurrently dialing
// clients cannot miss their arrival slots.
func (s *Server) AwaitConns(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.conns) < n && !s.done {
		s.cond.Wait()
	}
}

// Close stops accepting, wakes blocked ticks and closes all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.done = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Client performs lookups against a netcast server.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	// MaxRetries bounds redundant wake-ups per lookup session on a lossy
	// broadcast (0 = sim.DefaultMaxRetries). Retries, epoch restarts and
	// channel failovers all draw from this one budget; when it runs out
	// the lookup fails with an error wrapping fault.ErrRetryBudget.
	MaxRetries int
	// DeadAir arms channel failover: after DeadAir consecutive unusable
	// reads on one channel during a Lookup the client declares the
	// channel dead and re-tunes its descent to the believed root channel
	// instead of retrying forever. 0 disables failover, as
	// sim.FaultConfig.DeadAir does; sim.DefaultDeadAir is the usual
	// setting. Range scans never fail over.
	DeadAir int
	// Channels is the tower's channel count, which the failover protocol
	// needs to advance its root belief past a dead channel. Required when
	// DeadAir > 0.
	Channels int
	// Redial, when non-nil, arms crash reconnection: a transport failure
	// mid-session (the station process died under the socket) no longer
	// aborts the lookup — the client re-dials under the seeded Backoff
	// schedule, each attempt charging one Reconnect against the shared
	// retry budget, and resumes the protocol on the fresh connection.
	// Redial is called with the absolute slot the client will listen from
	// after this attempt; it returns a fresh connection, or an error when
	// the station is still down at that slot.
	Redial func(slot int) (net.Conn, error)
	// Backoff is the deterministic jittered backoff schedule spacing
	// reconnect attempts, in slots. The zero value uses the fault package
	// defaults; the seed makes the reconnect slot sequence — and hence
	// the resumed session's metrics — reproducible, which is what lets
	// the analytic twin model a crash byte for byte.
	Backoff fault.Backoff

	om clientObs
}

// clientObs bundles the client's instrument handles; all nil (no-op)
// until Instrument attaches a registry.
type clientObs struct {
	reg        *obs.Registry
	lookups    *obs.Counter
	batches    *obs.Counter
	reads      *obs.Counter
	retries    *obs.Counter
	restarts   *obs.Counter
	failovers  *obs.Counter
	reconnects *obs.Counter
	exhausted  *obs.Counter
}

// Instrument attaches an observability registry to the client: lookup
// and batch sessions, frame reads, retries, restarts, channel failovers,
// crash reconnects and budget exhaustions are counted, and
// batch/retry/restart/failover/reconnect trace events are emitted.
// Metrics returned to the caller are unaffected.
func (c *Client) Instrument(r *obs.Registry) {
	c.om = clientObs{
		reg:        r,
		lookups:    r.Counter("client_lookups_total"),
		batches:    r.Counter("client_batches_total"),
		reads:      r.Counter("client_reads_total"),
		retries:    r.Counter("client_retries_total"),
		restarts:   r.Counter("client_restarts_total"),
		failovers:  r.Counter("client_failovers_total"),
		reconnects: r.Counter("client_reconnects_total"),
		exhausted:  r.Counter("client_budget_exhausted_total"),
	}
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReader(conn)}
}

// Dial connects to a TCP netcast server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// Close detaches from the server and closes the connection.
func (c *Client) Close() error {
	c.detach()
	return c.conn.Close()
}

// detach tells the server to stop waiting for this radio; errors are
// irrelevant (the connection may already be gone).
func (c *Client) detach() {
	_ = c.request(detachChannel, 0)
}

func (c *Client) request(channel, slot int) error {
	req := appendRequest(make([]byte, 0, requestSize), channel, slot)
	_, err := c.conn.Write(req)
	return err
}

// session starts one client session over this connection.
func (c *Client) session() *sim.Session {
	return &sim.Session{
		Medium:   &socket{c: c},
		Env:      sim.FaultConfig{MaxRetries: c.MaxRetries, DeadAir: c.DeadAir, Backoff: c.Backoff},
		Channels: c.Channels,
		Observe:  c.observe,
	}
}

// observe counts and traces each recovery the session charges.
func (c *Client) observe(r sim.Recovery, channel, slot int) {
	ch, at := obs.A("channel", int64(channel)), obs.A("slot", int64(slot))
	switch r {
	case sim.Retry:
		c.om.retries.Inc()
		c.om.reg.Emit("retry", ch, at)
	case sim.Restart:
		c.om.restarts.Inc()
		c.om.reg.Emit("restart", ch, at)
	case sim.Failover:
		c.om.failovers.Inc()
		c.om.reg.Emit("failover", ch, at)
	case sim.Reconnect:
		c.om.reconnects.Inc()
		c.om.reg.Emit("reconnect", ch, at)
	}
}

// ended counts a session that ran out of budget.
func (c *Client) ended(err error) {
	if errors.Is(err, fault.ErrRetryBudget) {
		c.om.exhausted.Inc()
	}
}

// socket is the client's sim.Medium: each wake-up is one request and
// the one frame that answers it.
type socket struct {
	c     *Client
	reply sim.Reply
}

// Hear requests (channel, slot) and reads the answering frame; the
// server serves a passed slot at its next airing and stamps the frame
// with the slot it aired. An empty (lost-slot) frame or a payload failing
// its CRC is unusable. A transport failure is a station crash when
// Redial is armed, and ends the session otherwise.
func (s *socket) Hear(channel, slot int) *sim.Reply {
	c := s.c
	r := &s.reply
	if err := c.request(channel, slot); err != nil {
		return s.dropped(slot, err)
	}
	got, payload, err := readFrame(c.br)
	if err != nil {
		return s.dropped(slot, err)
	}
	c.om.reads.Inc()
	*r = sim.Reply{Status: sim.Unusable, Slot: got}
	if len(payload) == 0 {
		return r
	}
	b, err := wire.Unmarshal(payload)
	if err != nil {
		return r
	}
	r.Status = sim.Heard
	r.View = sim.View{
		Epoch:       b.Epoch,
		Start:       b.RootCopy,
		RootChannel: max(int(b.RootChannel), 1), // v2/v3 frames are unstamped: channel 1
		NextCycle:   int(b.NextCycle),
		Kind:        sim.BucketKind(b.Kind),
		Node:        tree.None,
		Key:         b.Key,
		Label:       b.Label,
		Pointers:    make([]sim.Pointer, len(b.Pointers)),
	}
	for i, p := range b.Pointers {
		r.View.Pointers[i] = sim.Pointer{
			Channel: int(p.Channel), Offset: int(p.Offset), Target: tree.None,
			KeyLo: p.KeyLo, KeyHi: p.KeyHi,
		}
	}
	return r
}

// dropped is the reply to a transport failure while a request for slot
// was outstanding: with Redial armed the station died under the socket
// and the session reconnects; otherwise the raw error ends the session.
func (s *socket) dropped(slot int, err error) *sim.Reply {
	if s.c.Redial == nil {
		s.reply = sim.Reply{Err: err}
	} else {
		s.reply = sim.Reply{Status: sim.Dropped, Slot: slot}
	}
	return &s.reply
}

// Redial dials the restarted station for a connection listening from
// slot and swaps it in.
func (s *socket) Redial(slot int) bool {
	c := s.c
	conn, err := c.Redial(slot)
	if err != nil {
		return false // station still down at slot: back off further
	}
	c.conn.Close()
	c.conn = conn
	c.br = bufio.NewReader(conn)
	return true
}

// Lookup retrieves the item with the given key, arriving at the given
// absolute slot: sim.Session.Lookup over this connection, the protocol
// the analytic twin runs as sim.Timeline.QuerySwitch, so the two report
// identical Metrics under the same environment. The session's budget,
// failover and reconnect behavior come from MaxRetries, DeadAir (with
// Channels), Redial and Backoff.
//
// A lookup is one session: it detaches from the broadcast when it
// finishes so the server never waits on an idle radio. Run further
// lookups over fresh connections.
func (c *Client) Lookup(arrival int, key int64, pw sim.Power) (found bool, label string, m sim.Metrics, err error) {
	defer c.detach()
	c.om.lookups.Inc()
	c.om.reg.Emit("tune", obs.A("arrival", int64(arrival)), obs.A("key", key))
	found, label, m, err = c.session().Lookup(arrival, key, pw)
	c.ended(err)
	return found, label, m, err
}
