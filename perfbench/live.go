package main

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/epoch"
	"repro/internal/netcast"
	"repro/internal/obs"
	"repro/internal/sim"
)

// clients is the number of concurrent client sessions. It is fixed, not
// taken from the CPU count, because the slot-space outcome of a run
// depends on it.
const clients = 2

// requestSize and detachChannel mirror the netcast request encoding
// (channel uint8 | slot uint32, channel 0 detaches), which tapConn
// watches to learn when a session has ended.
const (
	requestSize   = 5
	detachChannel = 0
)

var power = sim.Power{Active: 1, Doze: 0.05}

// job is one client session: a point lookup of key, or a range scan of
// [lo, hi], arriving at an absolute slot.
type job struct {
	id      int
	arrival int
	key     int64
	lo, hi  int64
	isRange bool
}

// result is a finished session as the client saw it.
type result struct {
	job
	found bool
	keys  []int64
	m     sim.Metrics
	err   error
	// wall runs from dial to detach; dial from dial to the first request;
	// call is the Lookup or LookupRange call alone.
	wall, dial, call time.Duration
	end              time.Time
}

// tlEntry is one epoch as it took the air: the tower's swap slot, the
// epoch ID and the program.
type tlEntry struct {
	start int
	id    uint32
	prog  *sim.Program
}

// liveHooks adapt the session engine to a workload. Every hook runs on
// the driver goroutine while the broadcast clock is stopped at slot t.
type liveHooks struct {
	// draw makes the session arriving at slot t from the client's stream.
	draw func(rng *rand.Rand, t int) job
	// gap draws the idle slots a client waits before its next session.
	gap func(rng *rand.Rand) int
	// onAir reports whether the key is on the air; a client whose key is
	// not skips the tower and arrives again later.
	onAir func(key int64) bool
	// atSlot runs before slot t airs (period closes and replans).
	atSlot func(t int) error
	// onSwap runs after the slot whose tick landed a staged epoch.
	onSwap func(e tlEntry)
	// offClock runs once in the middle of each chunk k of the timed
	// window; chunks that earlier work overran are skipped. Work timed
	// there is spread over the whole window instead of one burst, which
	// a shared machine's slow phases would skew.
	offClock func(k int) error
}

// client is one closed-loop session generator. The driver owns every
// field except the channels, and drives its seeded stream in slot order.
type client struct {
	rng      *rand.Rand
	jobs     chan job
	started  chan struct{}
	results  chan result
	detached atomic.Bool

	busy bool
	next int // arrival slot of the next session
}

// live runs closed-loop client sessions against a netcast tower over
// loopback TCP, advancing the broadcast clock itself.
//
// Slot-space outcomes are a pure function of the seed. The clock stops
// while a client dials: a session arriving at slot t is registered at
// the tower before slot t airs, and the tower's own lockstep then holds
// the clock until its first request. A session that ends on the frame of
// slot e has detached by the time slot e+1 has aired, and its client's
// next session arrives no earlier than e+2.
type live struct {
	srv      *netcast.Server
	reg      *epoch.Registry // nil for a static tower
	ln       net.Listener
	frames   *obs.Counter // nil unless traced
	hooks    liveHooks
	tr       *tracer
	clients  []*client
	accepted rendezvous
	wg       sync.WaitGroup

	// staging is set while a staged epoch has not yet landed.
	staging  bool
	timeline []tlEntry
	results  []result
	// misses and hits count onAir verdicts by arrival slot.
	hits, misses []int
	late         int
	nextID       int

	// Tick accounting of the timed window, which is split into chunks
	// of equal length for the latency tail and the off-clock work.
	ticks    int
	chunk    time.Duration
	deadline time.Time
	// stalled is how long the benchmark's own off-clock work held the
	// clock inside the window; the rate metrics count only the rest.
	// pauses are the spans of that work, in order.
	stalled                time.Duration
	pauses                 [][2]time.Time
	idle, deliver          logHist
	frameTotal, frameTicks int64
	windowStart, windowEnd time.Time
	windowSec              float64
	sampleIdle             int
}

func newLive(srv *netcast.Server, reg *epoch.Registry, first *sim.Program, frames *obs.Counter, hooks liveHooks, tr *tracer, seed int64) (*live, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lv := &live{srv: srv, reg: reg, ln: ln, frames: frames, hooks: hooks, tr: tr,
		accepted: rendezvous{m: map[string]chan struct{}{}}}
	id := uint32(1)
	if reg != nil {
		id = reg.Current().ID
	}
	lv.timeline = []tlEntry{{start: 0, id: id, prog: first}}
	for i := 0; i < clients; i++ {
		c := &client{
			rng:     rand.New(rand.NewSource(seed*1000003 + int64(i))),
			jobs:    make(chan job, 1),
			started: make(chan struct{}, 1),
			results: make(chan result, 1),
		}
		c.next = hooks.gap(c.rng)
		lv.clients = append(lv.clients, c)
	}
	return lv, nil
}

// rendezvous lets a dialing client wait until the tower has registered
// the connection the accept loop took for it.
type rendezvous struct {
	mu sync.Mutex
	m  map[string]chan struct{}
}

func (r *rendezvous) ch(addr string) chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.m[addr]
	if c == nil {
		c = make(chan struct{})
		r.m[addr] = c
	}
	return c
}

func (r *rendezvous) done(addr string) {
	r.mu.Lock()
	delete(r.m, addr)
	r.mu.Unlock()
}

// tapConn is the client side of a session's connection. It notes the
// first request and flags the detach before the tower can see it.
type tapConn struct {
	net.Conn
	first    time.Time
	detached *atomic.Bool
}

func (c *tapConn) Write(b []byte) (int, error) {
	if c.first.IsZero() {
		c.first = time.Now()
	}
	if len(b) == requestSize && b[0] == detachChannel {
		c.detached.Store(true)
	}
	return c.Conn.Write(b)
}

// run measures for the given wall time, then keeps the clock going
// until it has passed horizon so the seed-determined metrics cover a
// fixed session set, and shuts everything down.
func (lv *live) run(seconds float64, horizon int) error {
	addr := lv.ln.Addr().String()
	lv.wg.Add(1)
	go func() {
		defer lv.wg.Done()
		for {
			conn, err := lv.ln.Accept()
			if err != nil {
				return
			}
			lv.srv.Attach(conn)
			close(lv.accepted.ch(conn.RemoteAddr().String()))
		}
	}()
	for _, c := range lv.clients {
		lv.wg.Add(1)
		go func(c *client) {
			defer lv.wg.Done()
			for j := range c.jobs {
				c.results <- lv.session(addr, c, j)
			}
		}(c)
	}
	defer func() {
		lv.srv.Close()
		lv.ln.Close()
		for _, c := range lv.clients {
			close(c.jobs)
		}
		lv.wg.Wait()
	}()

	lv.windowStart = time.Now()
	deadline := lv.windowStart.Add(time.Duration(seconds * float64(time.Second)))
	lv.chunk = deadline.Sub(lv.windowStart) / chunks
	lv.deadline = deadline
	stopping := false
	off := 0 // next chunk whose offClock work is due
	for t := 0; ; t++ {
		// Reading the wall clock costs more than an idle tick, so the due
		// check runs every 1024 ticks.
		if lv.hooks.offClock != nil && off < chunks && t%1024 == 0 &&
			time.Since(lv.windowStart) >= lv.chunk*time.Duration(off)+lv.chunk/2 {
			if err := lv.hooks.offClock(off); err != nil {
				return err
			}
			// Work that overran into later chunks does not catch up on
			// them: the next call is in the chunk now running at the
			// earliest.
			off = max(off+1, lv.chunkOf(time.Now()))
		}
		idle := true
		for _, c := range lv.clients {
			if c.busy && c.detached.Load() {
				lv.finish(c, <-c.results, t)
			}
			idle = idle && !c.busy
		}
		if !stopping && t >= horizon && !time.Now().Before(deadline) {
			stopping = true
		}
		if stopping && idle {
			break
		}
		if lv.hooks.atSlot != nil {
			if err := lv.hooks.atSlot(t); err != nil {
				return err
			}
		}
		for _, c := range lv.clients {
			if !stopping && !c.busy && c.next == t {
				lv.launch(c, t)
			}
		}
		if err := lv.tick(t, deadline); err != nil {
			return err
		}
	}
	if lv.windowEnd.IsZero() {
		lv.windowEnd = time.Now()
	}
	lv.windowSec = lv.windowEnd.Sub(lv.windowStart).Seconds()
	return nil
}

// tick airs slot t and, when traced, times it by whether it delivered
// any frame.
func (lv *live) tick(t int, deadline time.Time) error {
	var f0 int64
	if lv.frames != nil {
		f0 = lv.frames.Value()
	}
	start := time.Now()
	if err := lv.srv.Tick(); err != nil {
		return fmt.Errorf("tick %d: %w", t, err)
	}
	end := time.Now()
	if end.After(deadline) {
		if lv.windowEnd.IsZero() {
			lv.windowEnd = end
		}
	} else {
		lv.ticks++
		if lv.frames != nil {
			d := end.Sub(start)
			if n := lv.frames.Value() - f0; n == 0 {
				lv.idle.add(d.Nanoseconds())
				// Idle ticks are kept as totals; one in 1024 is also
				// written out as a span.
				if lv.sampleIdle++; lv.sampleIdle%1024 == 0 {
					lv.tr.record("netcast.idle_tick_sample", start, end, -1, -1)
				}
				lv.tr.aggregate("netcast.tick", d)
			} else {
				lv.deliver.add(d.Nanoseconds())
				lv.frameTotal += n
				lv.frameTicks++
				lv.tr.record("netcast.tick", start, end, -1, -1)
			}
		}
	}
	if lv.staging && lv.srv.Swaps() > len(lv.timeline)-1 {
		lv.staging = false
		cur := lv.reg.Current()
		e := tlEntry{start: t, id: cur.ID, prog: cur.Prog}
		lv.timeline = append(lv.timeline, e)
		if lv.hooks.onSwap != nil {
			lv.hooks.onSwap(e)
		}
	}
	return nil
}

// chunks is how many equal parts the timed window is split into.
const chunks = 40

// chunkOf returns the chunk of the timed window that holds instant at.
func (lv *live) chunkOf(at time.Time) int {
	return min(int(at.Sub(lv.windowStart)/lv.chunk), chunks-1)
}

// pause records that the benchmark's own work held the clock from from
// to to.
func (lv *live) pause(from, to time.Time) {
	lv.pauses = append(lv.pauses, [2]time.Time{from, to})
	if to.After(lv.deadline) {
		to = lv.deadline
	}
	if to.After(from) {
		lv.stalled += to.Sub(from)
	}
}

// paused reports whether the benchmark's own work held the clock at
// some time during r's session.
func (lv *live) paused(r result) bool {
	start := r.end.Add(-r.wall)
	i := sort.Search(len(lv.pauses), func(i int) bool { return lv.pauses[i][1].After(start) })
	return i < len(lv.pauses) && lv.pauses[i][0].Before(r.end)
}

// launch starts the session of client c that arrives at slot t.
func (lv *live) launch(c *client, t int) {
	j := lv.hooks.draw(c.rng, t)
	j.id = lv.nextID
	lv.nextID++
	if !lv.hooks.onAir(j.key) {
		lv.misses = append(lv.misses, t)
		c.next = t + 1 + lv.hooks.gap(c.rng)
		return
	}
	lv.hits = append(lv.hits, t)
	c.detached.Store(false)
	c.busy = true
	c.jobs <- j
	<-c.started
}

// finish takes a session's result and schedules the client's next one.
func (lv *live) finish(c *client, r result, t int) {
	c.busy = false
	lv.results = append(lv.results, r)
	next := t + 1
	if r.err == nil {
		next = r.arrival + r.m.AccessTime + 1 + lv.hooks.gap(c.rng)
	}
	if next < t {
		// The driver saw the detach later than the protocol allows: the
		// run is no longer a function of its seed. Counted as a failure.
		lv.late++
		next = t
	}
	c.next = next
}

// session runs one job over a fresh connection. It executes on the
// client's goroutine.
func (lv *live) session(addr string, c *client, j job) result {
	r := result{job: j}
	root := lv.tr.begin("session", -1, j.id)
	defer lv.tr.end(root)
	start := time.Now()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		r.err = fmt.Errorf("dial: %w", err)
		r.end = time.Now()
		c.detached.Store(true)
		c.started <- struct{}{}
		return r
	}
	local := raw.LocalAddr().String()
	<-lv.accepted.ch(local)
	lv.accepted.done(local)
	c.started <- struct{}{}
	conn := &tapConn{Conn: raw, detached: &c.detached}
	cl := netcast.NewClient(conn)
	callStart := time.Now()
	sp := lv.tr.begin("netcast.lookup_call", root, j.id)
	if j.isRange {
		r.keys, r.m, r.err = cl.LookupRange(j.arrival, j.lo, j.hi, power)
	} else {
		r.found, _, r.m, r.err = cl.Lookup(j.arrival, j.key, power)
	}
	lv.tr.end(sp)
	callEnd := time.Now()
	// The tower may already have dropped the detached connection.
	_ = cl.Close()
	r.end = time.Now()
	r.wall = r.end.Sub(start)
	r.call = callEnd.Sub(callStart)
	r.dial = conn.first.Sub(start)
	lv.tr.record("netcast.dial", start, callStart, root, j.id)
	// A session that failed mid-protocol must still release the driver.
	c.detached.Store(true)
	return r
}

// twinErr checks a session against the analytic twin: the static
// program, or a timeline of the epochs the tower actually aired.
func (lv *live) twinErr(r result) error {
	if r.err != nil {
		return r.err
	}
	if r.arrival < 0 {
		return fmt.Errorf("session %d: negative arrival", r.id)
	}
	if lv.reg == nil {
		prog := lv.timeline[0].prog
		if r.isRange {
			want, err := prog.QueryRange(r.arrival, r.lo, r.hi, power)
			if err != nil {
				return err
			}
			if want.Metrics != r.m || !equalKeys(want.Keys, r.keys) {
				return fmt.Errorf("session %d: range [%d,%d] at %d: socket %+v %v, twin %+v %v",
					r.id, r.lo, r.hi, r.arrival, r.m, r.keys, want.Metrics, want.Keys)
			}
			return nil
		}
		want, found, err := prog.QueryKey(r.arrival, r.key, power)
		if err != nil {
			return err
		}
		if want != r.m || found != r.found {
			return fmt.Errorf("session %d: key %d at %d: socket %+v %v, twin %+v %v",
				r.id, r.key, r.arrival, r.m, r.found, want, found)
		}
		return nil
	}
	tl, origin, err := lv.window(r.arrival, r.arrival+r.m.AccessTime)
	if err != nil {
		return err
	}
	if r.isRange {
		want, err := tl.QueryRangeSwitch(r.arrival-origin, r.lo, r.hi, power, sim.FaultConfig{})
		if err != nil {
			return err
		}
		if want.Metrics != r.m || !equalKeys(want.Keys, r.keys) {
			return fmt.Errorf("session %d: range [%d,%d] at %d: socket %+v %v, twin %+v %v",
				r.id, r.lo, r.hi, r.arrival, r.m, r.keys, want.Metrics, want.Keys)
		}
		return nil
	}
	want, found, err := tl.QuerySwitch(r.arrival-origin, r.key, power, sim.FaultConfig{})
	if err != nil {
		return err
	}
	if want != r.m || found != r.found {
		return fmt.Errorf("session %d: key %d at %d: socket %+v %v, twin %+v %v",
			r.id, r.key, r.arrival, r.m, r.found, want, found)
	}
	return nil
}

// window builds the twin timeline a session arriving at slot from sees:
// the epoch on the air at from and every epoch that took the air up to
// one past slot to, re-based so from's epoch starts at slot 0. Metrics
// are differences of slots, so the shift leaves them unchanged.
func (lv *live) window(from, to int) (*sim.Timeline, int, error) {
	i := len(lv.timeline) - 1
	for i > 0 && lv.timeline[i].start > from {
		i--
	}
	base := lv.timeline[i]
	tl, err := sim.NewTimeline(base.prog, base.id)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range lv.timeline[i+1:] {
		at, err := tl.Append(e.prog, e.id, e.start-base.start)
		if err != nil {
			return nil, 0, err
		}
		if at != e.start-base.start {
			return nil, 0, fmt.Errorf("epoch %d aired at slot %d, not a cycle boundary", e.id, e.start)
		}
		if e.start > to {
			break
		}
	}
	return tl, base.start, nil
}

func equalKeys(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
