package netcast

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/sim"
)

// churnSession attaches one connection and plays a seeded script against
// the tower: a few requests for past, present and future slots, each
// read back, then one way of leaving — a detach, an abrupt close, a
// silence the Grace eviction ends, or a wake-up parked far ahead and
// abandoned. Failed reads are tolerated (a connection may be evicted
// before its first request lands); a frame for the wrong slot is not.
// It returns how many frames it read.
func churnSession(t *testing.T, s *Server, rng *rand.Rand, cycleLen int, static bool) int {
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	s.Attach(serverEnd)
	br := bufio.NewReader(clientEnd)
	frames := 0
	for n := rng.Intn(6); n > 0; n-- {
		now := s.Now()
		slot := now
		switch rng.Intn(3) {
		case 0:
			slot = rng.Intn(now + 1)
		case 1:
			slot = now + 1 + rng.Intn(3*cycleLen)
		}
		if _, err := clientEnd.Write(appendRequest(nil, 1+rng.Intn(2), slot)); err != nil {
			return frames
		}
		clientEnd.SetReadDeadline(time.Now().Add(10 * time.Second))
		got, _, err := readFrame(br)
		if err != nil {
			return frames
		}
		frames++
		if got < slot || static && (got-slot)%cycleLen != 0 {
			t.Errorf("request for slot %d served at slot %d (cycle %d)", slot, got, cycleLen)
		}
	}
	switch rng.Intn(4) {
	case 0:
		clientEnd.Write(appendRequest(nil, detachChannel, 0))
	case 1:
		// Abrupt close: the deferred Close.
	case 2:
		time.Sleep(4 * s.opts.Grace)
	case 3:
		clientEnd.Write(appendRequest(nil, 1, s.Now()+1_000_000))
		time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
	}
	return frames
}

// TestTickBookkeepingChurn checks the idle-tick bookkeeping after every
// tick while seeded clients attach, request past, present and future
// slots, detach, close abruptly, go silent until evicted, and park far
// ahead — on a static tower and on an adaptive one swapping epochs of
// different cycle lengths. The run ends with Close, after which no
// connection may be left counted.
func TestTickBookkeepingChurn(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		name := "static"
		if adaptive {
			name = "adaptive"
		}
		t.Run(name, func(t *testing.T) { tickChurn(t, adaptive, 21) })
	}
}

func tickChurn(t *testing.T, adaptive bool, seed int64) {
	p1 := compiled(t, 8, 2, seed, false)
	p2 := compiled(t, 14, 2, seed+1, false)
	opts := ServerOptions{Grace: 3 * time.Millisecond, WriteTimeout: time.Second}
	var s *Server
	var reg *epoch.Registry
	var err error
	if adaptive {
		if reg, err = epoch.NewRegistry(p1); err == nil {
			s, err = NewAdaptiveServer(reg, opts)
		}
	} else {
		s, err = NewServerOpts(p1, opts)
	}
	if err != nil {
		t.Fatal(err)
	}

	const clients, sessions = 5, 12
	var wg sync.WaitGroup
	defer wg.Wait()
	defer s.Close()
	var mu sync.Mutex
	frames := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < sessions; i++ {
				n := churnSession(t, s, rng, p1.CycleLen(), !adaptive)
				mu.Lock()
				frames += n
				mu.Unlock()
			}
		}(rand.New(rand.NewSource(seed*1000 + int64(c))))
	}
	clientsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(clientsDone)
	}()
	for tick := 0; ; tick++ {
		select {
		case <-clientsDone:
			s.Close()
			if err := s.checkTickBookkeeping(); err != nil {
				t.Fatalf("after Close: %v", err)
			}
			if n := s.Conns(); n != 0 {
				t.Fatalf("%d connections still registered after Close", n)
			}
			if s.Evicted() == 0 {
				t.Fatal("no connection was evicted; the Grace path went untested")
			}
			if frames == 0 {
				t.Fatal("no frame was delivered")
			}
			if adaptive && s.Swaps() == 0 {
				t.Fatal("no epoch swap landed")
			}
			return
		default:
		}
		if adaptive && tick%512 == 100 {
			next := p2
			if tick%1024 == 100 {
				next = p1
			}
			if _, err := reg.Stage(next); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Tick(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if err := s.checkTickBookkeeping(); err != nil {
			t.Fatalf("after tick %d: %v", tick, err)
		}
	}
}

// parkedFrame is what one parked connection heard.
type parkedFrame struct {
	channel, slot int
	payload       []byte
	err           error
}

// park attaches n connections, each requesting slot on channel 1+i%k,
// and returns the channel their frames arrive on. The client ends close
// when the test ends.
func park(t testing.TB, s *Server, n, k, slot int) <-chan parkedFrame {
	out := make(chan parkedFrame, n)
	for i := 0; i < n; i++ {
		clientEnd, serverEnd := net.Pipe()
		t.Cleanup(func() { clientEnd.Close() })
		s.Attach(serverEnd)
		ch := 1 + i%k
		go func() {
			if _, err := clientEnd.Write(appendRequest(nil, ch, slot)); err != nil {
				out <- parkedFrame{err: err}
				return
			}
			got, payload, err := readFrame(bufio.NewReader(clientEnd))
			out <- parkedFrame{ch, got, payload, err}
		}()
	}
	return out
}

// TestParkedAdaptiveServerSwapsAtBoundary: with every connection parked
// past the next cycle boundary, an adaptive tower still lands a staged
// epoch at exactly that boundary slot, and the parked wake-ups hear the
// new epoch's buckets.
func TestParkedAdaptiveServerSwapsAtBoundary(t *testing.T) {
	p1 := compiled(t, 6, 2, 1, false)
	p2 := compiled(t, 11, 2, 2, false)
	L1, L2 := p1.CycleLen(), p2.CycleLen()
	if L1 == L2 {
		t.Fatalf("both programs have cycle length %d; the pin needs two", L1)
	}
	reg, err := epoch.NewRegistry(p1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewAdaptiveServer(reg, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stageAt, boundary := 2*L1+1, 3*L1
	parked := boundary + 2*L2 + 1
	const conns = 4
	heard := park(t, s, conns, p1.Channels(), parked)
	for slot := 0; slot <= parked; slot++ {
		if slot == stageAt {
			if _, err := reg.Stage(p2); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := s.checkTickBookkeeping(); err != nil {
			t.Fatalf("after slot %d: %v", slot, err)
		}
		want := 0
		if slot >= boundary {
			want = 1
		}
		if got := s.Swaps(); got != want {
			t.Fatalf("after slot %d: %d swaps, want %d (boundary at %d)", slot, got, want, boundary)
		}
	}
	cur := reg.Current()
	for i := 0; i < conns; i++ {
		f := <-heard
		if f.err != nil {
			t.Fatal(f.err)
		}
		if f.slot != parked {
			t.Fatalf("parked at %d, heard slot %d", parked, f.slot)
		}
		if want := cur.Packets[f.channel-1][(parked-boundary)%L2]; !bytes.Equal(f.payload, want) {
			t.Fatalf("channel %d at slot %d did not carry the new epoch's bucket", f.channel, parked)
		}
	}
}

// TestNextDueExactAfterFullTick: the tick that serves the earliest
// wake-up recomputes the next one, so the slots up to it take the idle
// path again.
func TestNextDueExactAfterFullTick(t *testing.T) {
	p := compiled(t, 6, 2, 9, false)
	s, err := NewServerOpts(p, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	heard := park(t, s, 1, 1, 5)
	park(t, s, 2, 2, 1000)
	if err := s.Run(6); err != nil {
		t.Fatal(err)
	}
	if f := <-heard; f.err != nil || f.slot != 5 {
		t.Fatalf("wake-up at slot 5 heard slot %d (err %v)", f.slot, f.err)
	}
	s.mu.Lock()
	next := s.nextDue
	s.mu.Unlock()
	if next != 1000 {
		t.Fatalf("after serving slot 5, nextDue = %d, want 1000", next)
	}
}

// BenchmarkTick measures one broadcast slot against a growing number of
// attached connections parked on a far-future slot. In "idle" no one is
// tuned to any slot aired; in "delivering" one of the connections (the
// only one when conns=1) wakes for every slot, so each tick writes one
// frame and waits for the next request.
func BenchmarkTick(b *testing.B) {
	p := compiled(b, 12, 2, 3, false)
	for _, mode := range []string{"idle", "delivering"} {
		for _, n := range []int{1, 64, 1024} {
			b.Run(fmt.Sprintf("%s/conns=%d", mode, n), func(b *testing.B) {
				benchTick(b, p, n, mode == "delivering")
			})
		}
	}
}

func benchTick(b *testing.B, p *sim.Program, n int, deliver bool) {
	s, err := NewServerOpts(p, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	parked := n
	if deliver {
		parked--
	}
	var ends []net.Conn
	for i := 0; i < parked; i++ {
		clientEnd, serverEnd := net.Pipe()
		s.Attach(serverEnd)
		ends = append(ends, clientEnd)
		if _, err := clientEnd.Write(appendRequest(nil, 1, math.MaxUint32)); err != nil {
			b.Fatal(err)
		}
	}
	listener := make(chan struct{})
	if deliver {
		clientEnd, serverEnd := net.Pipe()
		s.Attach(serverEnd)
		ends = append(ends, clientEnd)
		go func() {
			defer close(listener)
			var req [requestSize]byte
			buf := make([]byte, frameHeaderSize+0xFFFF)
			for slot := 0; ; slot++ {
				if _, err := clientEnd.Write(appendRequest(req[:0], 1, slot)); err != nil {
					return
				}
				if _, err := io.ReadFull(clientEnd, buf[:frameHeaderSize]); err != nil {
					return
				}
				size := int(buf[4])<<8 | int(buf[5])
				if _, err := io.ReadFull(clientEnd, buf[:size]); err != nil {
					return
				}
			}
		}()
	} else {
		close(listener)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.Close()
	for _, c := range ends {
		c.Close()
	}
	<-listener
}
