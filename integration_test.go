// Integration test: the whole system in one scenario. A keyed catalog is
// built into a search tree, optimally allocated, compiled, served over a
// real TCP socket to concurrent protocol clients, measured against the
// analytic simulator, and finally re-planned after the access pattern
// shifts — every layer of the repository in a single flow.
package repro_test

import (
	"math"
	"net"
	"testing"

	"repro/broadcast"
	"repro/internal/netcast"
	"repro/internal/sim"
)

func TestEndToEndSystem(t *testing.T) {
	// 1. Catalog → Hu-Tucker tree → optimal 2-channel schedule.
	items := []broadcast.Item{
		{Label: "news", Key: 10, Weight: 55},
		{Label: "sport", Key: 20, Weight: 25},
		{Label: "traffic", Key: 30, Weight: 40},
		{Label: "weather", Key: 40, Weight: 70},
		{Label: "stocks", Key: 50, Weight: 15},
		{Label: "events", Key: 60, Weight: 5},
	}
	planner, err := broadcast.NewPlanner(items, broadcast.PlannerConfig{
		Channels: 2,
		Drift:    0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := planner.Schedule()
	if !sched.Optimal {
		t.Fatal("six-item schedule should be exact")
	}

	// 2. Analytic expectations and a replayed workload must agree.
	power := broadcast.Power{Active: 1, Doze: 0.05}
	avg, err := sched.Measure(power)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sched.Replay(broadcast.ReplayConfig{Queries: 12000, Seed: 5, Power: power})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Access.Mean-avg.AccessTime) > 0.4 {
		t.Fatalf("replay mean %g far from expectation %g", rep.Access.Mean, avg.AccessTime)
	}

	// 3. The same schedule served over TCP: re-solve to reach the compiled
	// program (the facade keeps it private), then drive live lookups and
	// demand byte-identical metrics.
	tr := sched.Alloc.Tree()
	prog, err := sim.Compile(sched.Alloc, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	server, err := netcast.NewServerOpts(prog, netcast.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server.Serve(ln)

	const clients = 4
	type outcome struct {
		idx   int
		found bool
		m     sim.Metrics
		err   error
	}
	done := make(chan outcome, clients)
	wants := make([]sim.Metrics, clients)
	dataIDs := tr.DataIDs()
	for i := 0; i < clients; i++ {
		d := dataIDs[i%len(dataIDs)]
		key, _ := tr.Key(d)
		arrival := i * 2
		want, err := prog.Query(arrival, d, sim.Power(power))
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want
		go func(idx, arrival int, key int64) {
			c, err := netcast.Dial(ln.Addr().String())
			if err != nil {
				done <- outcome{idx: idx, err: err}
				return
			}
			defer c.Close()
			found, _, m, err := c.Lookup(arrival, key, sim.Power(power))
			done <- outcome{idx, found, m, err}
		}(i, arrival, key)
	}
	go func() {
		server.AwaitConns(clients)
		server.Run(10*prog.CycleLen() + 2*clients)
	}()
	for i := 0; i < clients; i++ {
		out := <-done
		if out.err != nil || !out.found {
			t.Fatalf("client %d: found=%v err=%v", out.idx, out.found, out.err)
		}
		if out.m != wants[out.idx] {
			t.Fatalf("client %d: live %+v != sim %+v", out.idx, out.m, wants[out.idx])
		}
	}

	// 4. The access pattern shifts: "events" becomes the hottest item.
	for i := 0; i < 3000; i++ {
		planner.RecordAccess(60)
	}
	replanned, err := planner.MaybeReplan()
	if err != nil {
		t.Fatal(err)
	}
	if !replanned {
		t.Fatal("expected a replan after the shift")
	}
	newSched := planner.Schedule()
	nt := newSched.Alloc.Tree()
	oldSlot := sched.Alloc.Slot(tr.FindLabel("events"))
	newSlot := newSched.Alloc.Slot(nt.FindLabel("events"))
	if newSlot >= oldSlot {
		t.Fatalf("hot item did not move forward: slot %d -> %d", oldSlot, newSlot)
	}
	// The new schedule still serves every key.
	for _, it := range items {
		if _, found, err := newSched.QueryKey(1, it.Key, power); err != nil || !found {
			t.Fatalf("key %d after replan: found=%v err=%v", it.Key, found, err)
		}
	}
}
