package netcast

import (
	"net"
	"sync"
	"testing"

	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

var pw = sim.Power{Active: 1, Doze: 0.05}

func compiled(t testing.TB, n, k int, seed int64, copies bool) *sim.Program {
	t.Helper()
	rng := stats.NewRNG(seed)
	items := make([]alphatree.Item, n)
	for i := range items {
		items[i] = alphatree.Item{Label: "item", Key: int64(i + 1), Weight: float64(1 + rng.Intn(100))}
	}
	tr, err := alphatree.HuTucker(items)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(tr, core.Config{Channels: k})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Compile(sol.Alloc, sim.Options{FillWithRootCopies: copies})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pipeClient attaches a client over an in-memory pipe.
func pipeClient(t testing.TB, s *Server) *Client {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	s.Attach(serverEnd)
	return NewClient(clientEnd)
}

// runLookup drives the server while a lookup runs on a pipe client.
func runLookup(t testing.TB, p *sim.Program, arrival int, key int64) (bool, sim.Metrics) {
	t.Helper()
	s, err := NewServerOpts(p, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := pipeClient(t, s)
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
	go s.Run(arrival + 5*p.CycleLen() + 5)
	out := await(t, done)
	if out.err != nil {
		t.Fatalf("lookup: %v", out.err)
	}
	return out.found, out.m
}

// TestPipeLookupMatchesSimulator drives lookups over net.Pipe and asserts
// metrics identical to the analytic simulator for every item and phase.
func TestPipeLookupMatchesSimulator(t *testing.T) {
	p := compiled(t, 6, 2, 1, false)
	tr := p.Tree()
	for _, d := range tr.DataIDs() {
		key, _ := tr.Key(d)
		for arrival := 0; arrival < p.CycleLen(); arrival += 2 {
			found, m := runLookup(t, compiled(t, 6, 2, 1, false), arrival, key)
			if !found {
				t.Fatalf("key %d arrival %d: not found", key, arrival)
			}
			want, err := p.Query(arrival, d, pw)
			if err != nil {
				t.Fatal(err)
			}
			if m != want {
				t.Fatalf("key %d arrival %d: net %+v != sim %+v", key, arrival, m, want)
			}
		}
	}
}

func TestPipeNegativeLookup(t *testing.T) {
	found, m := runLookup(t, compiled(t, 5, 2, 2, false), 0, 999)
	if found {
		t.Fatal("absent key found")
	}
	if m.TuningTime < 1 {
		t.Fatal("no frames read")
	}
}

func TestPipeRootCopies(t *testing.T) {
	p := compiled(t, 6, 2, 3, true)
	tr := p.Tree()
	d := tr.DataIDs()[1]
	key, _ := tr.Key(d)
	found, m := runLookup(t, compiled(t, 6, 2, 3, true), 2, key)
	if !found {
		t.Fatal("not found")
	}
	want, err := p.Query(2, d, pw)
	if err != nil {
		t.Fatal(err)
	}
	if m != want {
		t.Fatalf("net %+v != sim %+v", m, want)
	}
}

// TestTCPLoopback runs the full stack over a real TCP socket.
func TestTCPLoopback(t *testing.T) {
	p := compiled(t, 8, 2, 4, false)
	s, err := NewServerOpts(p, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(ln)

	tr := p.Tree()
	d := tr.DataIDs()[3]
	key, _ := tr.Key(d)

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
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
	// Dial returns before the accept loop has attached the connection;
	// a tower that starts ticking first can air every slot before the
	// lookup's first request registers, leaving it waiting forever.
	s.AwaitConns(1)
	go s.Run(5 * p.CycleLen())
	out := await(t, done)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.found {
		t.Fatal("not found over TCP")
	}
	want, err := p.Query(0, d, pw)
	if err != nil {
		t.Fatal(err)
	}
	if out.m != want {
		t.Fatalf("tcp %+v != sim %+v", out.m, want)
	}
}

// TestConcurrentNetClients: several pipe clients with different arrivals
// and keys, one server, exact metrics for all.
func TestConcurrentNetClients(t *testing.T) {
	p := compiled(t, 8, 2, 5, false)
	s, err := NewServerOpts(p, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := p.Tree()
	dataIDs := tr.DataIDs()
	const clients = 5

	type outcome struct {
		idx   int
		found bool
		m     sim.Metrics
		err   error
	}
	done := make(chan outcome, clients)
	wants := make([]sim.Metrics, clients)
	var closers []func() error
	for i := 0; i < clients; i++ {
		d := dataIDs[i%len(dataIDs)]
		key, _ := tr.Key(d)
		arrival := i
		want, err := p.Query(arrival, d, pw)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want
		c := pipeClient(t, s)
		closers = append(closers, c.Close)
		go func(idx int) {
			found, _, m, err := c.Lookup(arrival, key, pw)
			done <- outcome{idx, found, m, err}
		}(i)
	}
	go s.Run(clients + 6*p.CycleLen())
	for i := 0; i < clients; i++ {
		out := await(t, done)
		if out.err != nil || !out.found {
			t.Fatalf("client %d: found=%v err=%v", out.idx, out.found, out.err)
		}
		if out.m != wants[out.idx] {
			t.Fatalf("client %d: net %+v != sim %+v", out.idx, out.m, wants[out.idx])
		}
	}
	var wg sync.WaitGroup
	for _, cl := range closers {
		wg.Add(1)
		go func(f func() error) { defer wg.Done(); f() }(cl)
	}
	wg.Wait()
}

// TestLateRequestCatchesNextCycle: a request for a passed slot is served
// on the next cyclic occurrence rather than failing — also when the
// clock has run 10^7 slots past it.
func TestLateRequestCatchesNextCycle(t *testing.T) {
	p := compiled(t, 4, 1, 6, false)
	L := p.CycleLen()
	for _, tc := range []struct{ clock, slot, want int }{
		{3, 1, 1 + L},
		{10_000_003, 0, (10_000_003 + L - 1) / L * L},
	} {
		s, err := NewServerOpts(p, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Advance the clock with no clients attached.
		if err := s.Run(tc.clock); err != nil {
			t.Fatal(err)
		}
		c := pipeClient(t, s)
		done := make(chan error, 1)
		go func() {
			r := (&socket{c: c}).Hear(1, tc.slot)
			if r.Err == nil && r.Slot != tc.want {
				t.Errorf("slot %d requested at clock %d served at %d, want %d", tc.slot, tc.clock, r.Slot, tc.want)
			}
			done <- r.Err
		}()
		go s.Run(2 * L)
		if err := await(t, done); err != nil {
			t.Fatal(err)
		}
		c.Close()
		s.Close()
	}
}

func TestServerCloseUnblocksTick(t *testing.T) {
	p := compiled(t, 4, 1, 7, false)
	s, err := NewServerOpts(p, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Attach a client that never sends a request: Tick must block until
	// Close releases it.
	clientEnd, serverEnd := net.Pipe()
	s.Attach(serverEnd)
	defer clientEnd.Close()

	tickErr := make(chan error, 1)
	go func() { tickErr <- s.Tick() }()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-tickErr; err == nil {
		t.Fatal("Tick should fail after Close")
	}
	// Attaching after close is a no-op.
	a, b := net.Pipe()
	s.Attach(b)
	a.Close()
}

func TestBadChannelRequestDisconnects(t *testing.T) {
	p := compiled(t, 4, 1, 8, false)
	s, err := NewServerOpts(p, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := pipeClient(t, s)
	if err := c.request(9, 0); err != nil {
		t.Fatal(err)
	}
	// The server drops the connection; the next read fails.
	var buf [1]byte
	if _, err := c.conn.Read(buf[:]); err == nil {
		t.Fatal("expected disconnect after invalid channel")
	}
}

// runRange drives a range lookup against a fresh server.
func runRange(t *testing.T, p *sim.Program, arrival int, lo, hi int64) ([]int64, sim.Metrics) {
	t.Helper()
	s, err := NewServerOpts(p, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := pipeClient(t, s)
	defer c.Close()
	type outcome struct {
		keys []int64
		m    sim.Metrics
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		keys, m, err := c.LookupRange(arrival, lo, hi, pw)
		done <- outcome{keys, m, err}
	}()
	go func() {
		s.AwaitConns(1)
		s.Run(arrival + 40*p.CycleLen())
	}()
	out := await(t, done)
	if out.err != nil {
		t.Fatalf("range lookup: %v", out.err)
	}
	return out.keys, out.m
}

// TestRangeLookupMatchesSimulator: socket range scans agree with the
// analytic simulator on both retrieved keys and metrics.
func TestRangeLookupMatchesSimulator(t *testing.T) {
	for _, k := range []int{1, 2} {
		p := compiled(t, 9, k, 10, false)
		for _, rg := range [][2]int64{{1, 9}, {3, 5}, {7, 7}, {20, 30}} {
			keys, m := runRange(t, compiled(t, 9, k, 10, false), 1, rg[0], rg[1])
			want, err := p.QueryRange(1, rg[0], rg[1], pw)
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != len(want.Keys) {
				t.Fatalf("k=%d range %v: keys %v, want %v", k, rg, keys, want.Keys)
			}
			for i := range keys {
				if keys[i] != want.Keys[i] {
					t.Fatalf("k=%d range %v: keys %v, want %v", k, rg, keys, want.Keys)
				}
			}
			if m != want.Metrics {
				t.Fatalf("k=%d range %v: net %+v != sim %+v", k, rg, m, want.Metrics)
			}
		}
	}
}

func TestRangeLookupInvalidRange(t *testing.T) {
	p := compiled(t, 4, 1, 11, false)
	s, err := NewServerOpts(p, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := pipeClient(t, s)
	defer c.Close()
	if _, _, err := c.LookupRange(0, 9, 3, pw); err == nil {
		t.Fatal("want error for inverted range")
	}
}
