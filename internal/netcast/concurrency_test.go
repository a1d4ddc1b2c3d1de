package netcast

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestAwaitConnsCloseInterleaving pins the AwaitConns contract under
// concurrency: waiters with reachable thresholds unblock as connections
// attach, waiters with unreachable thresholds stay parked — and Close
// releases every one of them, including waiters that arrive after.
func TestAwaitConnsCloseInterleaving(t *testing.T) {
	p := compiled(t, 4, 1, 32, false)
	s, err := NewServerOpts(p, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 8
	unblocked := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		go func(n int) {
			s.AwaitConns(n)
			unblocked <- n
		}(i + 1)
	}

	var ends []net.Conn
	for i := 0; i < 3; i++ {
		clientEnd, serverEnd := net.Pipe()
		ends = append(ends, clientEnd)
		s.Attach(serverEnd)
	}
	defer func() {
		for _, c := range ends {
			c.Close()
		}
	}()

	timeout := time.After(10 * time.Second)
	for got := 0; got < 3; got++ {
		select {
		case n := <-unblocked:
			if n > 3 {
				t.Fatalf("waiter for %d conns unblocked with only 3 attached", n)
			}
		case <-timeout:
			t.Fatal("waiters with reachable thresholds stayed blocked")
		}
	}
	// The unreachable thresholds stay parked until Close.
	select {
	case n := <-unblocked:
		t.Fatalf("waiter for %d conns unblocked with only 3 attached", n)
	case <-time.After(20 * time.Millisecond):
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for got := 0; got < waiters-3; got++ {
		select {
		case <-unblocked:
		case <-timeout:
			t.Fatal("Close left AwaitConns waiters blocked")
		}
	}
	// A waiter arriving after Close returns immediately.
	done := make(chan struct{})
	go func() {
		s.AwaitConns(99)
		close(done)
	}()
	select {
	case <-done:
	case <-timeout:
		t.Fatal("AwaitConns blocked on a closed server")
	}
}

// TestEvictedUnderConcurrentAttachAndClose runs the eviction machinery
// under churn, the satellite's -race pin: a TCP dial storm of silent
// connections and stalled writers against a free-running ticker, with
// Close landing while the storm is still dialing. The eviction counter,
// its obs mirror, and the connection gauge must come out consistent.
func TestEvictedUnderConcurrentAttachAndClose(t *testing.T) {
	p := compiled(t, 4, 1, 31, false)
	r := obs.New()
	s, err := NewServerOpts(p, ServerOptions{
		Grace:        5 * time.Millisecond,
		WriteTimeout: 10 * time.Millisecond,
		Obs:          r,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(ln)
	addr := ln.Addr().String()

	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		for s.Tick() == nil {
		}
	}()

	// Dial storm: even dials request a slot and never drain the frame
	// (stalled writers), odd dials attach and go silent. Neither ever
	// detaches cleanly, so the server must evict them all.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return // server closed
				}
				if (w+i)%2 == 0 {
					conn.Write(appendRequest(nil, 1, 0))
				}
				time.Sleep(15 * time.Millisecond) // outlive the grace period
				conn.Close()
			}
		}(w)
	}

	deadline := time.Now().Add(10 * time.Second)
	for s.Evicted() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	evictedBeforeClose := s.Evicted()
	if evictedBeforeClose < 3 {
		t.Fatalf("only %d evictions under the dial storm", evictedBeforeClose)
	}
	// Close while the storm is still dialing.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	<-tickDone

	evicted := s.Evicted()
	if evicted < evictedBeforeClose {
		t.Fatalf("Evicted went backwards: %d then %d", evictedBeforeClose, evicted)
	}
	snap := r.Snapshot()
	if snap.Counters["netcast_evictions_total"] != int64(evicted) {
		t.Fatalf("evictions counter %d != Evicted() %d",
			snap.Counters["netcast_evictions_total"], evicted)
	}
	if snap.Gauges["netcast_conns"] != 0 {
		t.Fatalf("conns gauge %d after Close", snap.Gauges["netcast_conns"])
	}
	if attached := snap.Counters["netcast_conns_attached_total"]; attached < int64(evicted) {
		t.Fatalf("attached %d < evicted %d", attached, evicted)
	}
}
