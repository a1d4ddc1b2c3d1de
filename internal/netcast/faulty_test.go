package netcast

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/wire"
)

// runFaultyLookup drives one lookup against a lossy server and returns
// the client-side outcome.
func runFaultyLookup(t *testing.T, p *sim.Program, opts ServerOptions, retries, arrival int, key int64) (bool, sim.Metrics, error) {
	t.Helper()
	s, err := NewServerOpts(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := pipeClient(t, s)
	c.MaxRetries = retries
	defer c.Close()

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
	go func() {
		s.AwaitConns(1)
		s.Run(arrival + (8+retries)*p.CycleLen())
	}()
	out := await(t, done)
	return out.found, out.m, out.err
}

// TestFaultyLookupMatchesSimulator is the tentpole cross-check: with the
// same seed and loss rates, a lookup over a lossy socket reports metrics
// byte-identical to the analytic lossy simulator — including the retry
// count — because both draw fault outcomes from the same pure function of
// (seed, channel, absolute slot).
func TestFaultyLookupMatchesSimulator(t *testing.T) {
	p := compiled(t, 7, 2, 21, false)
	tr := p.Tree()
	models := []fault.Model{
		{Seed: 11, Drop: 0.25},
		{Seed: 12, Corrupt: 0.25},
		{Seed: 13, Drop: 0.15, Corrupt: 0.1, Stall: 0.2},
	}
	const retries = 64
	for _, model := range models {
		fc := sim.FaultConfig{Model: model, MaxRetries: retries}
		for _, d := range tr.DataIDs() {
			key, _ := tr.Key(d)
			for arrival := 0; arrival < p.CycleLen(); arrival += 3 {
				want, err := p.QueryFaulty(arrival, d, pw, fc)
				if err != nil {
					t.Fatal(err)
				}
				found, m, err := runFaultyLookup(t, compiled(t, 7, 2, 21, false),
					ServerOptions{Faults: model}, retries, arrival, key)
				if err != nil {
					t.Fatalf("model %+v key %d arrival %d: %v", model, key, arrival, err)
				}
				if !found {
					t.Fatalf("model %+v key %d arrival %d: not found", model, key, arrival)
				}
				if m != want {
					t.Fatalf("model %+v key %d arrival %d: net %+v != sim %+v", model, key, arrival, m, want)
				}
			}
		}
	}
}

// TestFaultyRangeMatchesSimulator extends the cross-check to range scans,
// whose recovery path runs through the frontier queue.
func TestFaultyRangeMatchesSimulator(t *testing.T) {
	model := fault.Model{Seed: 31, Drop: 0.2, Corrupt: 0.05}
	const retries = 256
	p := compiled(t, 9, 2, 22, false)
	fc := sim.FaultConfig{Model: model, MaxRetries: retries}
	for _, rg := range [][2]int64{{1, 9}, {2, 6}, {5, 5}} {
		want, err := staticTimeline(t, p).QueryRangeSwitch(1, rg[0], rg[1], pw, fc)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServerOpts(compiled(t, 9, 2, 22, false), ServerOptions{Faults: model})
		if err != nil {
			t.Fatal(err)
		}
		c := pipeClient(t, s)
		c.MaxRetries = retries
		type outcome struct {
			keys []int64
			m    sim.Metrics
			err  error
		}
		done := make(chan outcome, 1)
		go func() {
			keys, m, err := c.LookupRange(1, rg[0], rg[1], pw)
			done <- outcome{keys, m, err}
		}()
		go func() {
			s.AwaitConns(1)
			s.Run(200 * p.CycleLen())
		}()
		out := await(t, done)
		if out.err != nil {
			t.Fatalf("range %v: %v", rg, out.err)
		}
		if out.m != want.Metrics {
			t.Fatalf("range %v: net %+v != sim %+v", rg, out.m, want.Metrics)
		}
		if len(out.keys) != len(want.Keys) {
			t.Fatalf("range %v: keys %v != %v", rg, out.keys, want.Keys)
		}
		for i := range out.keys {
			if out.keys[i] != want.Keys[i] {
				t.Fatalf("range %v: keys %v != %v", rg, out.keys, want.Keys)
			}
		}
		c.Close()
		s.Close()
	}
}

// TestFaultyLookupBudgetExhausted: on a fully dropped channel the client
// reports the terminal budget error instead of spinning forever.
func TestFaultyLookupBudgetExhausted(t *testing.T) {
	p := compiled(t, 5, 1, 23, false)
	key, _ := p.Tree().Key(p.Tree().DataIDs()[0])
	_, _, err := runFaultyLookup(t, p, ServerOptions{Faults: fault.Model{Seed: 1, Drop: 1}}, 3, 0, key)
	if !errors.Is(err, fault.ErrRetryBudget) {
		t.Fatalf("want ErrRetryBudget, got %v", err)
	}
}

// TestTickEvictsSilentConn: a connection that attaches and never sends a
// request must not wedge the broadcast clock — Tick evicts it after the
// grace period.
func TestTickEvictsSilentConn(t *testing.T) {
	p := compiled(t, 4, 1, 24, false)
	s, err := NewServerOpts(p, ServerOptions{Grace: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	s.Attach(serverEnd)

	start := time.Now()
	if err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("eviction took %v", elapsed)
	}
	if got := s.Evicted(); got != 1 {
		t.Fatalf("evicted %d conns, want 1", got)
	}
	// The evicted connection is closed server-side.
	clientEnd.SetReadDeadline(time.Now().Add(2 * time.Second))
	var buf [1]byte
	if _, err := clientEnd.Read(buf[:]); err == nil {
		t.Fatal("evicted connection still open")
	}
}

// TestTickEvictionSparesActiveClient: eviction removes only the silent
// connection; a client mid-lookup still gets exact service.
func TestTickEvictsOnlySilent(t *testing.T) {
	p := compiled(t, 6, 2, 25, false)
	tr := p.Tree()
	d := tr.DataIDs()[2]
	key, _ := tr.Key(d)
	s, err := NewServerOpts(p, ServerOptions{Grace: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	silent, serverEnd := net.Pipe()
	defer silent.Close()
	s.Attach(serverEnd)
	c := pipeClient(t, s)
	defer c.Close()

	type outcome struct {
		found bool
		m     sim.Metrics
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		found, _, m, err := c.Lookup(0, key, pw)
		done <- outcome{found, m, err}
	}()
	go func() {
		s.AwaitConns(2)
		s.Run(6 * p.CycleLen())
	}()
	out := await(t, done)
	if out.err != nil || !out.found {
		t.Fatalf("active client suffered: found=%v err=%v", out.found, out.err)
	}
	want, err := p.Query(0, d, pw)
	if err != nil {
		t.Fatal(err)
	}
	if out.m != want {
		t.Fatalf("net %+v != sim %+v", out.m, want)
	}
	if got := s.Evicted(); got != 1 {
		t.Fatalf("evicted %d conns, want 1", got)
	}
}

// TestTickSurvivesStalledWriter: a client that requests a slot and then
// never drains its socket must not block Tick past the write timeout.
func TestTickSurvivesStalledWriter(t *testing.T) {
	p := compiled(t, 4, 1, 26, false)
	s, err := NewServerOpts(p, ServerOptions{WriteTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	s.Attach(serverEnd)
	// Request slot 0 but never read the frame: net.Pipe writes block
	// until the peer reads, so the delivery can only end via deadline.
	req := appendRequest(nil, 1, 0)
	if _, err := clientEnd.Write(req); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled writer held Tick for %v", elapsed)
	}
}

// TestTickSurvivesAbruptClose is the regression test for the liveness
// hole: a client that requests a wake-up and then disappears without
// detaching used to leave Tick blocked on its dead connection.
func TestTickSurvivesAbruptClose(t *testing.T) {
	p := compiled(t, 4, 1, 27, false)
	s, err := NewServerOpts(p, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clientEnd, serverEnd := net.Pipe()
	s.Attach(serverEnd)
	// net.Pipe writes are synchronous, so once Write returns the handler
	// has consumed the request. Then vanish without a detach.
	req := appendRequest(nil, 1, 0)
	if _, err := clientEnd.Write(req); err != nil {
		t.Fatal(err)
	}
	clientEnd.Close()
	for i := 0; i < 3; i++ {
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTickSurvivesAbruptCloseTCP exercises the same hole over a real
// socket, where the close is only visible as a failed write.
func TestTickSurvivesAbruptCloseTCP(t *testing.T) {
	p := compiled(t, 4, 1, 28, false)
	s, err := NewServerOpts(p, ServerOptions{WriteTimeout: time.Second, Grace: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s.AwaitConns(1)
	if _, err := conn.Write(appendRequest(nil, 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Force an abortive close (RST rather than FIN) where supported.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 2*p.CycleLen() && err == nil; i++ {
			err = s.Tick()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Tick wedged on an abruptly closed TCP conn")
	}
}

// TestFaultySequentialSessionsMatchTwin: two sequential lookups on fresh
// connections against one lossy tower both match the simulator — the
// first session's detach leaves nothing behind that could shift the
// fault draws of the second.
func TestFaultySequentialSessionsMatchTwin(t *testing.T) {
	p := compiled(t, 6, 2, 29, false)
	tr := p.Tree()
	key, _ := tr.Key(tr.DataIDs()[0])
	model := fault.Model{Seed: 41, Drop: 0.3}
	s, err := NewServerOpts(p, ServerOptions{Faults: model})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fc := sim.FaultConfig{Model: model, MaxRetries: 64}

	for round := 0; round < 2; round++ {
		c := pipeClient(t, s)
		c.MaxRetries = 64
		// No ticker is running between rounds, so the clock is stable
		// here and the lockstep protocol guarantees the probe request
		// lands before the clock moves again.
		arrival := s.Now()
		want, err := p.QueryFaulty(arrival, tr.DataIDs()[0], pw, fc)
		if err != nil {
			t.Fatal(err)
		}
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
		runDone := make(chan error, 1)
		go func() { runDone <- s.Run(70 * p.CycleLen()) }()
		out := await(t, done)
		if err := <-runDone; err != nil {
			t.Fatal(err)
		}
		if out.err != nil || !out.found {
			t.Fatalf("round %d: found=%v err=%v", round, out.found, out.err)
		}
		if out.m != want {
			t.Fatalf("round %d: net %+v != sim %+v", round, out.m, want)
		}
		c.Close()
	}
}

// TestFaultyFrameDecision pins Tick's frame decision byte for byte: with
// drop, corrupt and stall all armed and one outage window, a raw client
// tuned to every (channel, slot) of two cycles hears the encoded packet,
// a lost-slot frame (dark or Drop), or the packet with exactly the
// BitIndex bit flipped, which wire.Unmarshal rejects (Corrupt).
func TestFaultyFrameDecision(t *testing.T) {
	p := compiled(t, 9, 3, 51, true)
	L, k := p.CycleLen(), p.Channels()
	model := fault.Model{Seed: 52, Drop: 0.2, Corrupt: 0.2, Stall: 0.2}
	outs := fault.Outages{{Channel: 2, StartSlot: L / 2, EndSlot: L + L/2}}
	packets, err := wire.EncodeProgram(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerOpts(p, ServerOptions{Faults: model, Outages: outs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One raw client per channel requests every slot in turn; Tick waits
	// for all of them, so each slot is heard on every channel.
	type heard struct {
		ch, slot int
		payload  []byte
		err      error
	}
	frames := make(chan heard, 2*L*k) // one per frame: senders never block
	for ch := 1; ch <= k; ch++ {
		clientEnd, serverEnd := net.Pipe()
		defer clientEnd.Close()
		s.Attach(serverEnd)
		go func(ch int, conn net.Conn) {
			br := bufio.NewReader(conn)
			for slot := 0; slot < 2*L; slot++ {
				if _, err := conn.Write(appendRequest(nil, ch, slot)); err != nil {
					frames <- heard{ch: ch, err: err}
					return
				}
				got, payload, err := readFrame(br)
				frames <- heard{ch, got, payload, err}
				if err != nil {
					return
				}
			}
		}(ch, clientEnd)
	}
	go s.Run(2 * L)

	seen := map[string]int{}
	for i := 0; i < 2*L*k; i++ {
		h := await(t, frames)
		if h.err != nil {
			t.Fatalf("channel %d: %v", h.ch, h.err)
		}
		o := model.At(h.ch, h.slot)
		want := packets[h.ch-1][h.slot%L]
		switch {
		case outs.DarkAt(h.ch, h.slot) || o == fault.Drop:
			want = nil
			seen["lost"]++
		case o == fault.Corrupt:
			want = bytes.Clone(want)
			bit := model.BitIndex(h.ch, h.slot, 8*len(want))
			want[bit/8] ^= 1 << (bit % 8)
			// The CRC catches every flip; one in the magic or version
			// bytes fails that field's own check first.
			_, err := wire.Unmarshal(h.payload)
			if err == nil || bit >= 3*8 && !errors.Is(err, wire.ErrChecksum) {
				t.Fatalf("channel %d slot %d: corrupt frame (bit %d) decoded with %v, want ErrChecksum",
					h.ch, h.slot, bit, err)
			}
			seen["corrupt"]++
		default:
			seen[o.String()]++
		}
		if outs.DarkAt(h.ch, h.slot) && o != fault.Drop {
			seen["dark-not-drop"]++
		}
		if !bytes.Equal(h.payload, want) {
			t.Fatalf("channel %d slot %d (%v, dark %v): heard %x, want %x",
				h.ch, h.slot, o, outs.DarkAt(h.ch, h.slot), h.payload, want)
		}
	}
	for _, class := range []string{"lost", "corrupt", "ok", "stall", "dark-not-drop"} {
		if seen[class] == 0 {
			t.Fatalf("no %s slot in the sweep %v; the pin is vacuous", class, seen)
		}
	}
	// Corruption flips the connection's copy, never the shared packet.
	fresh, err := wire.EncodeProgram(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for ch := range fresh {
		for i := range fresh[ch] {
			if !bytes.Equal(s.packets[ch][i], fresh[ch][i]) {
				t.Fatalf("packet (%d, %d) changed on air", ch+1, i+1)
			}
		}
	}
}

// TestFaultyStallPastWriteDeadline: a Stall draw holds its frame back for
// stallDelay after the write deadline is armed, so with a deadline
// shorter than the stall the write fails and that connection — only
// that one — is closed. Tick still returns, and a second connection due
// in the same slot gets its frame and stays on the air.
func TestFaultyStallPastWriteDeadline(t *testing.T) {
	p := compiled(t, 6, 2, 53, false)
	model := fault.Model{Seed: 54, Stall: 0.5}
	slot := 0
	for model.At(1, slot) != fault.Stall || model.At(2, slot) != fault.OK {
		slot++
	}
	s, err := NewServerOpts(p, ServerOptions{Faults: model, WriteTimeout: stallDelay / 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stalled, serverEnd := net.Pipe()
	defer stalled.Close()
	s.Attach(serverEnd)
	healthy, serverEnd := net.Pipe()
	defer healthy.Close()
	s.Attach(serverEnd)
	for ch, conn := range []net.Conn{stalled, healthy} {
		if _, err := conn.Write(appendRequest(nil, ch+1, slot)); err != nil {
			t.Fatal(err)
		}
	}

	type heard struct {
		slot    int
		payload []byte
		err     error
	}
	listen := func(conn net.Conn) <-chan heard {
		out := make(chan heard, 1)
		go func() {
			got, payload, err := readFrame(bufio.NewReader(conn))
			out <- heard{got, payload, err}
		}()
		return out
	}
	stalledFrame, healthyFrame := listen(stalled), listen(healthy)
	ticked := make(chan error, 1)
	go func() { ticked <- s.Run(slot + 1) }()
	if err := await(t, ticked); err != nil {
		t.Fatal(err)
	}
	if h := await(t, stalledFrame); h.err == nil {
		t.Fatalf("stalled connection heard slot %d past its write deadline", h.slot)
	}
	h := await(t, healthyFrame)
	if h.err != nil {
		t.Fatalf("healthy connection: %v", h.err)
	}
	if want := s.packets[1][slot%p.CycleLen()]; h.slot != slot || !bytes.Equal(h.payload, want) {
		t.Fatalf("healthy connection heard slot %d %x, want slot %d %x", h.slot, h.payload, slot, want)
	}

	// The healthy connection is still served.
	next := listen(healthy)
	if _, err := healthy.Write(appendRequest(nil, 2, slot+1)); err != nil {
		t.Fatal(err)
	}
	go func() { ticked <- s.Tick() }()
	if err := await(t, ticked); err != nil {
		t.Fatal(err)
	}
	if h := await(t, next); h.err != nil || h.slot != slot+1 {
		t.Fatalf("healthy connection after the stall: slot %d, %v", h.slot, h.err)
	}
	if got := s.Conns(); got != 1 {
		t.Fatalf("%d connections registered after the stall, want 1", got)
	}
}
