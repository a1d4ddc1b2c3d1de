// Command bcast-live runs the whole system for real: it optimizes a tree,
// serves the wire-encoded broadcast over TCP on a loopback port, spawns
// concurrent clients that perform keyed lookups through the socket
// protocol, and cross-checks every measured metric against the analytic
// simulator. With -drop/-corrupt/-stall the broadcast medium is degraded
// by the seeded fault model and the cross-check runs against the analytic
// lossy simulator instead — the metrics, including retry counts, must
// still match exactly.
//
// With -outage CH:START:END (repeatable via commas) channels go dark for
// whole windows of absolute slots: the tower's missed-tick watchdog
// detects each outage, replans the catalog onto the surviving channels,
// hot-swaps the survivor program at a cycle boundary, and replans back
// to full width on recovery — while every client survives the dead air
// through the failover protocol. The cross-check runs against the
// analytic outage twin, Failovers included.
//
// With -batch k1,k2,... every client retrieves that whole key set in one
// session: the conflict-aware planner computes a tune schedule across
// channels (exact DP for small batches, greedy above), the analytic twin
// predicts the metrics — conflicts and extra cycles included — and the
// client executes the plan over the socket with ReadBatch. Live and
// analytic metrics must match byte for byte, lossy medium or not.
//
// With -kill SLOT the station is crash-tested for real: the tower
// checkpoints its epoch state at every cycle boundary, the process
// tears it down — sockets and all — the moment the broadcast clock
// reaches SLOT, and a fresh tower warm-starts from the checkpoint after
// -restart-after slots of downtime, rebinding the same port. Every
// client rides through the crash with the reconnect protocol (seeded
// exponential backoff against the same port) and is cross-checked
// against the analytic restart twin, Reconnects included.
//
// With -obs addr the process serves its observability endpoint — JSON
// metrics at /metrics, recent trace events at /trace, and net/http/pprof
// under /debug/pprof/ — and dumps a final text snapshot of every metric
// to stderr on shutdown. Bind loopback: the endpoint is unauthenticated.
// Observation never changes behavior; the metrics cross-checked against
// the simulator stay byte-identical with or without -obs.
//
// Example:
//
//	bcast-gen -type catalog -n 12 | bcast-live -k 2 -clients 8
//	bcast-gen -type catalog -n 12 | bcast-live -clients 4 -drop 0.2 -corrupt 0.1
//	bcast-gen -type catalog -n 12 | bcast-live -swap 9 -obs 127.0.0.1:0
//	bcast-gen -type catalog -n 12 | bcast-live -k 2 -outage 1:10:40 -clients 6
//	bcast-gen -type catalog -n 12 | bcast-live -k 2 -batch 1,4,7,9 -clients 4
//	bcast-gen -type catalog -n 12 | bcast-live -k 2 -kill 12 -restart-after 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/netcast"
	"repro/internal/obs"
	"repro/internal/retrieval"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// liveOpts carries the command-line configuration into run.
type liveOpts struct {
	k       int
	clients int
	seed    int64
	// drop/corrupt/stall are the per-slot fault probabilities of the
	// injected lossy-channel model (all zero = perfect medium).
	drop, corrupt, stall float64
	// retries bounds redundant wake-ups per lookup (0 = the default).
	retries int
	// swap, when positive, stages a re-optimized epoch-2 program (same
	// keys, rotated weights) once the broadcast clock reaches that slot;
	// the tower hot-swaps it at the next cycle boundary and every client
	// is cross-checked against the adaptive analytic simulator instead,
	// including its Restarts count.
	swap int
	// outages is the channel-outage schedule (empty = no outages);
	// watchdog the tower's missed-tick threshold (0 = default, negative
	// disables replanning); deadAir the client's consecutive-unusable-read
	// failover threshold (0 = default, negative disables failover).
	outages           fault.Outages
	watchdog, deadAir int
	// batchKeys, when non-empty, switches every client to one planned
	// multi-key retrieval of exactly these keys instead of a single
	// random lookup.
	batchKeys []int64
	// kill, when positive, crash-tests the station: the tower is torn
	// down when the broadcast clock reaches that slot and warm-started
	// from its checkpoint after restartAfter slots of downtime, while
	// every client reconnects through the seeded backoff.
	kill, restartAfter int
	// obs, when non-nil, receives server and client metrics and trace
	// events; main wires it to the -obs HTTP endpoint.
	obs *obs.Registry
}

func main() {
	var (
		in  = flag.String("tree", "", "tree JSON file (default stdin); must be keyed (bcast-gen -type catalog)")
		opt liveOpts
	)
	flag.IntVar(&opt.k, "k", 2, "number of broadcast channels")
	flag.IntVar(&opt.clients, "clients", 5, "concurrent lookup clients")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for client arrivals, keys and fault outcomes")
	flag.Float64Var(&opt.drop, "drop", 0, "per-slot frame loss probability")
	flag.Float64Var(&opt.corrupt, "corrupt", 0, "per-slot bit-corruption probability")
	flag.Float64Var(&opt.stall, "stall", 0, "per-slot delivery stall probability")
	flag.IntVar(&opt.retries, "retries", 0, "retry budget per lookup (0 = default)")
	flag.IntVar(&opt.swap, "swap", 0, "stage a rebuilt epoch-2 program at this slot and hot-swap it on air (0 = static broadcast)")
	outageSpec := flag.String("outage", "", "channel-outage windows CH:START:END, comma-separated (e.g. 1:10:40,2:60:80)")
	batchSpec := flag.String("batch", "", "retrieve these comma-separated keys as one planned batch per client (e.g. 1,4,7)")
	flag.IntVar(&opt.kill, "kill", 0, "crash the station when the broadcast clock reaches this slot and warm-restart it from its checkpoint (0 = no crash)")
	flag.IntVar(&opt.restartAfter, "restart-after", 5, "downtime in slots between the -kill crash and the warm restart")
	flag.IntVar(&opt.watchdog, "watchdog", 0, "missed-tick threshold before the tower replans (0 = default, negative = no replanning)")
	flag.IntVar(&opt.deadAir, "deadair", 0, "consecutive unusable reads before a client fails over (0 = default, negative = no failover)")
	obsAddr := flag.String("obs", "", "serve /metrics, /trace and /debug/pprof on this address (bind loopback, e.g. 127.0.0.1:0)")
	flag.Parse()
	var err error
	if opt.outages, err = parseOutages(*outageSpec); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-live:", err)
		os.Exit(1)
	}
	if opt.batchKeys, err = parseBatchKeys(*batchSpec); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-live:", err)
		os.Exit(1)
	}
	var obsSrv *obs.Server
	if *obsAddr != "" {
		opt.obs = obs.NewWithOptions(obs.Options{Clock: func() int64 { return time.Now().UnixNano() }})
		if obsSrv, err = obs.Serve(*obsAddr, opt.obs); err != nil {
			fmt.Fprintln(os.Stderr, "bcast-live:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "obs: serving http://%s/metrics\n", obsSrv.Addr())
	}
	err = run(*in, opt, os.Stdout)
	if obsSrv != nil {
		obsSrv.Close()
		fmt.Fprintln(os.Stderr, "\nobs: final metrics snapshot")
		opt.obs.WriteText(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcast-live:", err)
		os.Exit(1)
	}
}

func run(in string, opt liveOpts, w io.Writer) error {
	var data []byte
	var err error
	if in == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(in)
	}
	if err != nil {
		return err
	}
	t, err := tree.ParseJSON(data)
	if err != nil {
		return err
	}
	if !t.Keyed() {
		return fmt.Errorf("tree must be keyed for live lookups (use bcast-gen -type catalog)")
	}
	sol, err := core.Solve(t, core.Config{Channels: opt.k})
	if err != nil {
		return err
	}
	// Root copies make the first channel's idle slots useful, give the
	// hot-swap demo the boundary-straddling descents that restart, and
	// give failed-over clients a root to re-tune to during an outage.
	prog, err := sim.Compile(sol.Alloc, sim.Options{FillWithRootCopies: opt.swap > 0 || opt.outages.Enabled() || opt.kill > 0})
	if err != nil {
		return err
	}
	demos := 0
	for _, on := range []bool{len(opt.batchKeys) > 0, opt.outages.Enabled(), opt.swap > 0, opt.kill > 0} {
		if on {
			demos++
		}
	}
	if demos > 1 {
		return fmt.Errorf("-batch, -swap, -outage and -kill are separate demos; pick one")
	}
	if len(opt.batchKeys) > 0 {
		return runBatch(t, prog, opt, w)
	}
	if opt.outages.Enabled() {
		return runOutage(t, prog, opt, w)
	}
	if opt.swap > 0 {
		return runAdaptive(t, prog, opt, w)
	}
	if opt.kill > 0 {
		return runRestart(t, prog, opt, w)
	}

	model := fault.Model{Seed: opt.seed, Drop: opt.drop, Corrupt: opt.corrupt, Stall: opt.stall}
	fc := sim.FaultConfig{Model: model, MaxRetries: opt.retries}
	server, err := netcast.NewServerOpts(prog, netcast.ServerOptions{
		Faults:   model,
		StallFor: time.Millisecond,
		Obs:      opt.obs,
	})
	if err != nil {
		return err
	}
	defer server.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	server.Serve(ln)
	fmt.Fprintf(w, "broadcasting %d nodes over %d channels at %s (cycle %d slots)\n",
		t.NumNodes(), opt.k, ln.Addr(), prog.CycleLen())
	if model.Enabled() {
		fmt.Fprintf(w, "lossy medium: drop %.2f, corrupt %.2f, stall %.2f (seed %d)\n",
			opt.drop, opt.corrupt, opt.stall, opt.seed)
	}
	fmt.Fprintln(w)

	power := sim.Power{Active: 1, Doze: 0.05}
	rng := stats.NewRNG(opt.seed)
	dataIDs := t.DataIDs()

	type outcome struct {
		idx     int
		arrival int
		key     int64
		found   bool
		m       sim.Metrics
		want    sim.Metrics
		err     error
		wantErr error
	}
	done := make(chan outcome, opt.clients)
	for i := 0; i < opt.clients; i++ {
		target := dataIDs[rng.Intn(len(dataIDs))]
		key, _ := t.Key(target)
		arrival := rng.Intn(2 * prog.CycleLen())
		want, wantErr := prog.QueryFaulty(arrival, target, power, fc)
		if wantErr != nil && !errors.Is(wantErr, fault.ErrRetryBudget) {
			return wantErr
		}
		go func(idx, arrival int, key int64, want sim.Metrics, wantErr error) {
			c, err := netcast.Dial(ln.Addr().String())
			if err != nil {
				done <- outcome{idx: idx, err: err}
				return
			}
			defer c.Close()
			c.MaxRetries = opt.retries
			c.Instrument(opt.obs)
			found, _, m, err := c.Lookup(arrival, key, power)
			done <- outcome{idx, arrival, key, found, m, want, err, wantErr}
		}(i, arrival, key, want, wantErr)
	}

	// Drive the broadcast once every client is connected, so nobody's
	// arrival slot can pass before they are registered. The tick budget
	// covers the worst case of every client exhausting its retry budget.
	go func() {
		server.AwaitConns(opt.clients)
		budget := opt.retries
		if budget <= 0 {
			budget = sim.DefaultMaxRetries
		}
		server.Run((2*(opt.clients+2) + budget + 8) * prog.CycleLen())
	}()

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "client\tarrival\tkey\tfound\taccess\ttuning\tretries\tenergy\tmatches simulator")
	failures := 0
	for i := 0; i < opt.clients; i++ {
		o := <-done
		if o.err != nil {
			// A budget exhaustion the analytic simulator also predicts is
			// an agreement, not a failure.
			if errors.Is(o.err, fault.ErrRetryBudget) && errors.Is(o.wantErr, fault.ErrRetryBudget) {
				fmt.Fprintf(tw, "%d\t%d\t%d\t-\t-\t-\t-\t-\tbudget exhausted (as predicted)\n",
					o.idx, o.arrival, o.key)
				continue
			}
			return fmt.Errorf("client %d: %w", o.idx, o.err)
		}
		if o.wantErr != nil {
			return fmt.Errorf("client %d: simulator predicted %v but the socket lookup succeeded", o.idx, o.wantErr)
		}
		match := o.m == o.want
		if !match || !o.found {
			failures++
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%v\t%d\t%d\t%d\t%.2f\t%v\n",
			o.idx, o.arrival, o.key, o.found, o.m.AccessTime, o.m.TuningTime, o.m.Retries, o.m.Energy, match)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d clients diverged from the simulator", failures, opt.clients)
	}
	fmt.Fprintf(w, "\nall %d live lookups matched the analytic simulator exactly\n", opt.clients)
	return nil
}

// parseBatchKeys parses the -batch flag: comma-separated catalog keys.
func parseBatchKeys(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var keys []int64
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -batch key %q: %v", part, err)
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// runBatch serves the broadcast while every client retrieves the whole
// -batch key set in one planned session: the conflict-aware planner
// schedules the reads across channels for each client's arrival, the
// analytic twin predicts the session's metrics, and the client executes
// the identical plan over the socket. Plan-level conflict accounting
// (targets spilled to later cycles) must agree on both paths.
func runBatch(t *tree.Tree, prog *sim.Program, opt liveOpts, w io.Writer) error {
	byKey := make(map[int64]tree.ID, len(t.DataIDs()))
	for _, id := range t.DataIDs() {
		key, _ := t.Key(id)
		byKey[key] = id
	}
	targets := make([]tree.ID, len(opt.batchKeys))
	for i, key := range opt.batchKeys {
		id, ok := byKey[key]
		if !ok {
			return fmt.Errorf("-batch key %d is not in the catalog", key)
		}
		targets[i] = id
	}

	model := fault.Model{Seed: opt.seed, Drop: opt.drop, Corrupt: opt.corrupt, Stall: opt.stall}
	fc := sim.FaultConfig{Model: model, MaxRetries: opt.retries}
	cfg := retrieval.Config{Obs: opt.obs}
	if opt.obs != nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	planner := retrieval.New(cfg)
	server, err := netcast.NewServerOpts(prog, netcast.ServerOptions{
		Faults:   model,
		StallFor: time.Millisecond,
		Obs:      opt.obs,
	})
	if err != nil {
		return err
	}
	defer server.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	server.Serve(ln)
	fmt.Fprintf(w, "broadcasting %d nodes over %d channels at %s (cycle %d slots)\n",
		t.NumNodes(), opt.k, ln.Addr(), prog.CycleLen())
	fmt.Fprintf(w, "batch retrieval: %d keys per client %v\n", len(targets), opt.batchKeys)
	if model.Enabled() {
		fmt.Fprintf(w, "lossy medium: drop %.2f, corrupt %.2f, stall %.2f (seed %d)\n",
			opt.drop, opt.corrupt, opt.stall, opt.seed)
	}
	fmt.Fprintln(w)

	power := sim.Power{Active: 1, Doze: 0.05}
	rng := stats.NewRNG(opt.seed)

	type outcome struct {
		idx     int
		arrival int
		m       sim.Metrics
		want    sim.Metrics
		err     error
		wantErr error
	}
	done := make(chan outcome, opt.clients)
	maxNeed := 0
	for i := 0; i < opt.clients; i++ {
		arrival := rng.Intn(2 * prog.CycleLen())
		plan, err := planner.PlanBatch(prog, arrival, targets)
		if err != nil {
			return err
		}
		if need := plan.Arrival + plan.Makespan(); need > maxNeed {
			maxNeed = need
		}
		want, wantErr := prog.QueryBatch(plan, power, fc)
		if wantErr != nil && !errors.Is(wantErr, fault.ErrRetryBudget) {
			return wantErr
		}
		go func(idx, arrival int, plan *sim.BatchPlan, want sim.Metrics, wantErr error) {
			c, err := netcast.Dial(ln.Addr().String())
			if err != nil {
				done <- outcome{idx: idx, err: err}
				return
			}
			defer c.Close()
			c.MaxRetries = opt.retries
			c.Instrument(opt.obs)
			m, err := c.ReadBatch(plan, power)
			done <- outcome{idx, arrival, m, want, err, wantErr}
		}(i, arrival, plan, want, wantErr)
	}

	go func() {
		server.AwaitConns(opt.clients)
		budget := opt.retries
		if budget <= 0 {
			budget = sim.DefaultMaxRetries
		}
		server.Run(maxNeed + (2*(opt.clients+2)+budget+8)*prog.CycleLen())
	}()

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "client\tarrival\tkeys\taccess\tprobe\ttuning\tretries\tconflicts\textra cycles\tenergy\tmatches simulator")
	failures, conflicts := 0, 0
	for i := 0; i < opt.clients; i++ {
		o := <-done
		if o.err != nil {
			if errors.Is(o.err, fault.ErrRetryBudget) && errors.Is(o.wantErr, fault.ErrRetryBudget) {
				fmt.Fprintf(tw, "%d\t%d\t%d\t-\t-\t-\t-\t-\t-\t-\tbudget exhausted (as predicted)\n",
					o.idx, o.arrival, len(targets))
				continue
			}
			return fmt.Errorf("client %d: %w", o.idx, o.err)
		}
		if o.wantErr != nil {
			return fmt.Errorf("client %d: simulator predicted %v but the socket batch succeeded", o.idx, o.wantErr)
		}
		match := o.m == o.want
		if !match {
			failures++
		}
		conflicts += o.m.Conflicts
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\t%v\n",
			o.idx, o.arrival, len(targets), o.m.AccessTime, o.m.ProbeWait, o.m.TuningTime,
			o.m.Retries, o.m.Conflicts, o.m.ExtraCycles, o.m.Energy, match)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d clients diverged from the batch simulator", failures, opt.clients)
	}
	fmt.Fprintf(w, "\n%d conflicts rescheduled; all %d live batch retrievals matched the analytic simulator exactly\n",
		conflicts, opt.clients)
	return nil
}

// rebuildRotated re-optimizes the same catalog under rotated demand: each
// key inherits its successor's weight, the shifting-popularity workload a
// real tower re-plans for. Keys and channel count are unchanged, so the
// epoch-2 tree is a legal hot-swap target.
func rebuildRotated(t *tree.Tree, channels int) (*sim.Program, error) {
	ids := t.DataIDs()
	items := make([]alphatree.Item, len(ids))
	for i, id := range ids {
		key, _ := t.Key(id)
		items[i] = alphatree.Item{Label: t.Label(id), Key: key, Weight: t.Weight(id)}
	}
	weights := make([]float64, len(items))
	for i := range items {
		weights[i] = items[(i+1)%len(items)].Weight
	}
	for i := range items {
		items[i].Weight = weights[i]
	}
	next, err := alphatree.HuTucker(items)
	if err != nil {
		return nil, err
	}
	sol, err := core.Solve(next, core.Config{Channels: channels})
	if err != nil {
		return nil, err
	}
	return sim.Compile(sol.Alloc, sim.Options{FillWithRootCopies: true})
}

// runAdaptive serves the epoch-versioned broadcast: prog airs as epoch 1,
// a rebuilt program is staged once the clock reaches opt.swap, the tower
// swaps it in at the next cycle boundary, and every client — whose
// descent may straddle the swap and restart — is cross-checked against
// the adaptive analytic simulator, Restarts included.
func runAdaptive(t *tree.Tree, prog *sim.Program, opt liveOpts, w io.Writer) error {
	prog2, err := rebuildRotated(t, opt.k)
	if err != nil {
		return err
	}
	tl, err := sim.NewTimeline(prog, 1)
	if err != nil {
		return err
	}
	swapSlot, err := tl.Append(prog2, 2, opt.swap)
	if err != nil {
		return err
	}

	model := fault.Model{Seed: opt.seed, Drop: opt.drop, Corrupt: opt.corrupt, Stall: opt.stall}
	fc := sim.FaultConfig{Model: model, MaxRetries: opt.retries}
	reg, err := epoch.NewRegistry(prog)
	if err != nil {
		return err
	}
	server, err := netcast.NewAdaptiveServer(reg, netcast.ServerOptions{
		Faults:   model,
		StallFor: time.Millisecond,
		Obs:      opt.obs,
	})
	if err != nil {
		return err
	}
	defer server.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	server.Serve(ln)
	fmt.Fprintf(w, "broadcasting %d nodes over %d channels at %s (epoch 1, cycle %d slots)\n",
		t.NumNodes(), opt.k, ln.Addr(), prog.CycleLen())
	fmt.Fprintf(w, "hot swap: epoch 2 (cycle %d slots) staged at slot %d, lands at cycle boundary %d\n",
		prog2.CycleLen(), opt.swap, swapSlot)
	if model.Enabled() {
		fmt.Fprintf(w, "lossy medium: drop %.2f, corrupt %.2f, stall %.2f (seed %d)\n",
			opt.drop, opt.corrupt, opt.stall, opt.seed)
	}
	fmt.Fprintln(w)

	power := sim.Power{Active: 1, Doze: 0.05}
	rng := stats.NewRNG(opt.seed)
	dataIDs := t.DataIDs()

	type outcome struct {
		idx     int
		arrival int
		key     int64
		found   bool
		m       sim.Metrics
		want    sim.Metrics
		err     error
		wantErr error
	}
	done := make(chan outcome, opt.clients)
	for i := 0; i < opt.clients; i++ {
		key, _ := t.Key(dataIDs[rng.Intn(len(dataIDs))])
		// Arrivals cluster around the swap so descents straddle it.
		arrival := rng.Intn(swapSlot + 2*prog2.CycleLen())
		want, _, wantErr := tl.QuerySwitch(arrival, key, power, fc)
		if wantErr != nil && !errors.Is(wantErr, fault.ErrRetryBudget) {
			return wantErr
		}
		go func(idx, arrival int, key int64, want sim.Metrics, wantErr error) {
			c, err := netcast.Dial(ln.Addr().String())
			if err != nil {
				done <- outcome{idx: idx, err: err}
				return
			}
			defer c.Close()
			c.MaxRetries = opt.retries
			c.Instrument(opt.obs)
			found, _, m, err := c.Lookup(arrival, key, power)
			done <- outcome{idx, arrival, key, found, m, want, err, wantErr}
		}(i, arrival, key, want, wantErr)
	}

	go func() {
		server.AwaitConns(opt.clients)
		server.Run(opt.swap)
		if _, err := reg.Stage(prog2); err != nil {
			return
		}
		budget := opt.retries
		if budget <= 0 {
			budget = sim.DefaultMaxRetries
		}
		server.Run(swapSlot - opt.swap + (2*(opt.clients+2)+budget+8)*(prog.CycleLen()+prog2.CycleLen()))
	}()

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "client\tarrival\tkey\tfound\taccess\ttuning\tretries\trestarts\tenergy\tmatches simulator")
	failures, restarts := 0, 0
	for i := 0; i < opt.clients; i++ {
		o := <-done
		if o.err != nil {
			if errors.Is(o.err, fault.ErrRetryBudget) && errors.Is(o.wantErr, fault.ErrRetryBudget) {
				fmt.Fprintf(tw, "%d\t%d\t%d\t-\t-\t-\t-\t-\t-\tbudget exhausted (as predicted)\n",
					o.idx, o.arrival, o.key)
				continue
			}
			return fmt.Errorf("client %d: %w", o.idx, o.err)
		}
		if o.wantErr != nil {
			return fmt.Errorf("client %d: simulator predicted %v but the socket lookup succeeded", o.idx, o.wantErr)
		}
		match := o.m == o.want
		if !match {
			failures++
		}
		restarts += o.m.Restarts
		fmt.Fprintf(tw, "%d\t%d\t%d\t%v\t%d\t%d\t%d\t%d\t%.2f\t%v\n",
			o.idx, o.arrival, o.key, o.found, o.m.AccessTime, o.m.TuningTime, o.m.Retries, o.m.Restarts, o.m.Energy, match)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d clients diverged from the adaptive simulator", failures, opt.clients)
	}
	fmt.Fprintf(w, "\nswaps landed: %d; %d descent restarts; all %d live lookups matched the adaptive simulator exactly\n",
		server.Swaps(), restarts, opt.clients)
	return nil
}

// runRestart crash-tests the station: the tower checkpoints at every
// cycle boundary, dies — listener, sockets and all — the moment its
// clock reaches opt.kill, and a fresh process warm-starts from the
// checkpoint on the same port once the downtime window has passed.
// Clients that were mid-session reconnect under the seeded backoff and
// finish against the restored broadcast; every session is cross-checked
// against the analytic restart twin, Reconnects included.
func runRestart(t *tree.Tree, prog *sim.Program, opt liveOpts, w io.Writer) error {
	dir, err := os.MkdirTemp("", "bcast-live-ckpt")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sopts := netcast.ServerOptions{
		Faults:         fault.Model{Seed: opt.seed, Drop: opt.drop, Corrupt: opt.corrupt, Stall: opt.stall},
		StallFor:       time.Millisecond,
		Obs:            opt.obs,
		CheckpointPath: dir + "/station.ckpt",
		Resume:         true,
	}
	down := fault.Downtime{StartSlot: opt.kill, EndSlot: opt.kill + opt.restartAfter}
	bo := fault.Backoff{Seed: opt.seed}
	env := sim.FaultConfig{
		Model:      sopts.Faults,
		Downtimes:  fault.Downtimes{down},
		Backoff:    bo,
		MaxRetries: opt.retries,
	}
	static, err := sim.NewTimeline(prog, 0)
	if err != nil {
		return err
	}

	reg, err := epoch.NewRegistry(prog)
	if err != nil {
		return err
	}
	server, err := netcast.NewAdaptiveServer(reg, sopts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	server.Serve(ln)
	addr := ln.Addr().String()

	// station guards the kill/warm-restart transition: a client redial
	// observed after the crash blocks here until the new tower is
	// accepting, and is refused while the downtime window holds.
	var station struct {
		mu     sync.Mutex
		cur    *netcast.Server
		killed bool
	}
	station.cur = server
	defer func() {
		station.mu.Lock()
		cur := station.cur
		station.mu.Unlock()
		if cur != nil {
			cur.Close()
		}
	}()
	redial := func(slot int) (net.Conn, error) {
		station.mu.Lock()
		defer station.mu.Unlock()
		if station.cur == nil || (station.killed && slot < down.EndSlot) {
			return nil, fmt.Errorf("station down at slot %d", slot)
		}
		return net.Dial("tcp", addr)
	}

	fmt.Fprintf(w, "broadcasting %d nodes over %d channels at %s (cycle %d slots)\n",
		t.NumNodes(), opt.k, addr, prog.CycleLen())
	fmt.Fprintf(w, "crash test: station dies at slot %d, warm-starts from its checkpoint at slot %d\n",
		down.StartSlot, down.EndSlot)
	if sopts.Faults.Enabled() {
		fmt.Fprintf(w, "lossy medium: drop %.2f, corrupt %.2f, stall %.2f (seed %d)\n",
			opt.drop, opt.corrupt, opt.stall, opt.seed)
	}
	fmt.Fprintln(w)

	power := sim.Power{Active: 1, Doze: 0.05}
	rng := stats.NewRNG(opt.seed)
	dataIDs := t.DataIDs()

	type outcome struct {
		idx     int
		arrival int
		key     int64
		found   bool
		m       sim.Metrics
		want    sim.Metrics
		err     error
		wantErr error
	}
	done := make(chan outcome, opt.clients)
	for i := 0; i < opt.clients; i++ {
		key, _ := t.Key(dataIDs[rng.Intn(len(dataIDs))])
		// Arrivals spread up to the crash so sessions straddle it.
		arrival := rng.Intn(opt.kill + prog.CycleLen())
		want, _, wantErr := static.QuerySwitch(arrival, key, power, env)
		if wantErr != nil && !errors.Is(wantErr, fault.ErrRetryBudget) {
			return wantErr
		}
		go func(idx, arrival int, key int64, want sim.Metrics, wantErr error) {
			c, err := netcast.Dial(addr)
			if err != nil {
				done <- outcome{idx: idx, err: err}
				return
			}
			defer c.Close()
			c.MaxRetries = opt.retries
			c.Backoff = bo
			c.Redial = redial
			c.Instrument(opt.obs)
			found, _, m, err := c.Lookup(arrival, key, power)
			done <- outcome{idx, arrival, key, found, m, want, err, wantErr}
		}(i, arrival, key, want, wantErr)
	}

	// Drive the broadcast by hand: tick only while a session is in
	// flight (a free-running clock would outpace reconnecting clients),
	// and fire the crash the moment the clock reaches the kill slot.
	stop := make(chan struct{})
	driveDone := make(chan error, 1)
	go func() {
		server.AwaitConns(opt.clients)
		for {
			select {
			case <-stop:
				driveDone <- nil
				return
			default:
			}
			station.mu.Lock()
			cur := station.cur
			station.mu.Unlock()
			if !station.killed && cur.Now() >= down.StartSlot {
				station.mu.Lock()
				cur.Close()
				reg2, err := epoch.NewRegistry(prog)
				if err == nil {
					station.cur, err = netcast.NewAdaptiveServer(reg2, sopts)
				}
				if err != nil {
					station.cur = nil
					station.mu.Unlock()
					driveDone <- err
					return
				}
				ln2, err := net.Listen("tcp", addr)
				if err != nil {
					station.mu.Unlock()
					driveDone <- err
					return
				}
				station.cur.Serve(ln2)
				station.killed = true
				warm := station.cur.Warm()
				clock := station.cur.Now()
				station.mu.Unlock()
				fmt.Fprintf(w, "station killed at slot %d; warm=%v, resumed at boundary %d\n\n",
					down.StartSlot, warm, clock)
				continue
			}
			if cur.Conns() > 0 {
				if err := cur.Tick(); err != nil {
					driveDone <- err
					return
				}
			} else {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "client\tarrival\tkey\tfound\taccess\ttuning\tretries\treconnects\tenergy\tmatches simulator")
	failures, reconnects := 0, 0
	for i := 0; i < opt.clients; i++ {
		o := <-done
		if o.err != nil {
			if errors.Is(o.err, fault.ErrRetryBudget) && errors.Is(o.wantErr, fault.ErrRetryBudget) {
				fmt.Fprintf(tw, "%d\t%d\t%d\t-\t-\t-\t-\t-\t-\tbudget exhausted (as predicted)\n",
					o.idx, o.arrival, o.key)
				continue
			}
			close(stop)
			return fmt.Errorf("client %d: %w", o.idx, o.err)
		}
		if o.wantErr != nil {
			close(stop)
			return fmt.Errorf("client %d: simulator predicted %v but the socket lookup succeeded", o.idx, o.wantErr)
		}
		match := o.m == o.want
		if !match {
			failures++
		}
		reconnects += o.m.Reconnects
		fmt.Fprintf(tw, "%d\t%d\t%d\t%v\t%d\t%d\t%d\t%d\t%.2f\t%v\n",
			o.idx, o.arrival, o.key, o.found, o.m.AccessTime, o.m.TuningTime, o.m.Retries, o.m.Reconnects, o.m.Energy, match)
	}
	close(stop)
	if err := <-driveDone; err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d clients diverged from the restart simulator", failures, opt.clients)
	}
	fmt.Fprintf(w, "\n%d client reconnects; all %d live lookups matched the restart simulator exactly\n",
		reconnects, opt.clients)
	return nil
}

// parseOutages parses the -outage flag: comma-separated CH:START:END
// windows of absolute slots.
func parseOutages(s string) (fault.Outages, error) {
	if s == "" {
		return nil, nil
	}
	var out fault.Outages
	for _, part := range strings.Split(s, ",") {
		var o fault.Outage
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d:%d:%d", &o.Channel, &o.StartSlot, &o.EndSlot); err != nil {
			return nil, fmt.Errorf("bad outage %q (want CH:START:END): %v", part, err)
		}
		out = append(out, o)
	}
	return out, out.Validate()
}

// runOutage serves the broadcast while channels suffer the scheduled
// outages: the tower's watchdog detects each window, replans the catalog
// onto the survivors (staged through the epoch registry and hot-swapped
// at a cycle boundary), and replans back to full width on recovery.
// Clients arm the failover protocol and every session is cross-checked
// against the analytic outage twin — the timeline carrying the same
// replans at the same detection slots — Failovers included.
func runOutage(t *tree.Tree, prog *sim.Program, opt liveOpts, w io.Writer) error {
	wdog := opt.watchdog
	if wdog == 0 {
		wdog = netcast.DefaultWatchdog
	}
	deadAir := opt.deadAir
	if deadAir == 0 {
		deadAir = sim.DefaultDeadAir
	}
	budget := opt.retries
	if budget <= 0 {
		budget = sim.DefaultMaxRetries
	}
	L := prog.CycleLen()
	maxEnd := 0
	for _, o := range opt.outages {
		if o.EndSlot > maxEnd {
			maxEnd = o.EndSlot
		}
	}
	// The tick budget covers every client exhausting its retry budget
	// past the last window; detections are replayed over the same span so
	// tower and twin see the identical schedule.
	runSlots := maxEnd + (2*(opt.clients+2)+budget+8)*L
	events := opt.outages.Detections(opt.k, wdog, runSlots)
	progs, err := experiment.ReplanPrograms(prog, events, opt.k)
	if err != nil {
		return err
	}
	tl, replans, err := experiment.ReplanTimeline(prog, events, progs)
	if err != nil {
		return err
	}

	model := fault.Model{Seed: opt.seed, Drop: opt.drop, Corrupt: opt.corrupt, Stall: opt.stall}
	env := sim.FaultConfig{Model: model, Outages: opt.outages, MaxRetries: opt.retries, DeadAir: deadAir}
	reg, err := epoch.NewRegistry(prog)
	if err != nil {
		return err
	}
	idx := 0
	server, err := netcast.NewAdaptiveServer(reg, netcast.ServerOptions{
		Faults:   model,
		Outages:  opt.outages,
		Watchdog: wdog,
		StallFor: time.Millisecond,
		Obs:      opt.obs,
		OnLiveChange: func(live []int, slot int) {
			if idx < len(progs) {
				reg.Stage(progs[idx])
				idx++
			}
		},
	})
	if err != nil {
		return err
	}
	defer server.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	server.Serve(ln)
	fmt.Fprintf(w, "broadcasting %d nodes over %d channels at %s (cycle %d slots)\n",
		t.NumNodes(), opt.k, ln.Addr(), L)
	fmt.Fprintf(w, "outages: %v; watchdog %d, dead air %d, %d replans will air\n",
		opt.outages, wdog, deadAir, replans)
	if model.Enabled() {
		fmt.Fprintf(w, "lossy medium: drop %.2f, corrupt %.2f, stall %.2f (seed %d)\n",
			opt.drop, opt.corrupt, opt.stall, opt.seed)
	}
	fmt.Fprintln(w)

	power := sim.Power{Active: 1, Doze: 0.05}
	rng := stats.NewRNG(opt.seed)
	dataIDs := t.DataIDs()

	type outcome struct {
		idx     int
		arrival int
		key     int64
		found   bool
		m       sim.Metrics
		want    sim.Metrics
		err     error
		wantErr error
	}
	done := make(chan outcome, opt.clients)
	for i := 0; i < opt.clients; i++ {
		key, _ := t.Key(dataIDs[rng.Intn(len(dataIDs))])
		// Arrivals spread across the outage windows so sessions hit dead
		// air before, during, and after the replans.
		arrival := rng.Intn(maxEnd + 2*L)
		want, _, wantErr := tl.QuerySwitch(arrival, key, power, env)
		if wantErr != nil && !errors.Is(wantErr, fault.ErrRetryBudget) {
			return wantErr
		}
		go func(idx, arrival int, key int64, want sim.Metrics, wantErr error) {
			c, err := netcast.Dial(ln.Addr().String())
			if err != nil {
				done <- outcome{idx: idx, err: err}
				return
			}
			defer c.Close()
			c.MaxRetries = opt.retries
			c.DeadAir = deadAir
			c.Channels = opt.k
			c.Instrument(opt.obs)
			found, _, m, err := c.Lookup(arrival, key, power)
			done <- outcome{idx, arrival, key, found, m, want, err, wantErr}
		}(i, arrival, key, want, wantErr)
	}

	go func() {
		server.AwaitConns(opt.clients)
		server.Run(runSlots)
	}()

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "client\tarrival\tkey\tfound\taccess\ttuning\tretries\tfailovers\tenergy\tmatches simulator")
	failures, failovers := 0, 0
	for i := 0; i < opt.clients; i++ {
		o := <-done
		if o.err != nil {
			if errors.Is(o.err, fault.ErrRetryBudget) && errors.Is(o.wantErr, fault.ErrRetryBudget) {
				fmt.Fprintf(tw, "%d\t%d\t%d\t-\t-\t-\t-\t-\t-\tbudget exhausted (as predicted)\n",
					o.idx, o.arrival, o.key)
				continue
			}
			return fmt.Errorf("client %d: %w", o.idx, o.err)
		}
		if o.wantErr != nil {
			return fmt.Errorf("client %d: simulator predicted %v but the socket lookup succeeded", o.idx, o.wantErr)
		}
		match := o.m == o.want
		if !match {
			failures++
		}
		failovers += o.m.Failovers
		fmt.Fprintf(tw, "%d\t%d\t%d\t%v\t%d\t%d\t%d\t%d\t%.2f\t%v\n",
			o.idx, o.arrival, o.key, o.found, o.m.AccessTime, o.m.TuningTime, o.m.Retries, o.m.Failovers, o.m.Energy, match)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d clients diverged from the outage simulator", failures, opt.clients)
	}
	fmt.Fprintf(w, "\nswaps landed: %d; channels live: %v; %d channel failovers; all %d live lookups matched the outage simulator exactly\n",
		server.Swaps(), server.ChannelsLive(), failovers, opt.clients)
	return nil
}
