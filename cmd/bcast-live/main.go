// Command bcast-live runs the whole system for real: it optimizes a tree,
// serves the wire-encoded broadcast over TCP on a loopback port, runs
// concurrent clients that perform keyed lookups through the socket
// protocol, and cross-checks every client against the analytic twin
// (sim.Timeline.QuerySwitch; sim.Program.QueryBatch for -batch). The
// metrics must match exactly, retries and recoveries included. Demos:
//
//   - -drop/-corrupt/-stall degrade the medium with the seeded fault model.
//   - -swap SLOT stages a re-optimized epoch-2 program once the clock
//     reaches SLOT; the tower hot-swaps it at the next cycle boundary and
//     descents that straddle the swap restart.
//   - -outage CH:START:END[,...] darkens channels for windows of slots:
//     the tower's watchdog replans onto the surviving channels and back,
//     and clients survive the dead air by failing over.
//   - -batch k1,k2,... makes every client retrieve that key set in one
//     planned session (ReadBatch), conflicts and extra cycles included.
//   - -kill SLOT tears the tower down, sockets and all, when the clock
//     reaches SLOT, and warm-starts a fresh one from its last checkpoint
//     on the same port after -restart-after slots; clients reconnect
//     under the seeded backoff.
//
// Each demo is one scenario run by one driver. The driver's clock ticks
// only while every client still in flight is attached to the current
// tower, so no client misses a slot it is about to request.
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
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "bcast-live:", err)
		os.Exit(1)
	}
	var err error
	if opt.outages, err = parseOutages(*outageSpec); err != nil {
		die(err)
	}
	if opt.batchKeys, err = parseBatchKeys(*batchSpec); err != nil {
		die(err)
	}
	var obsSrv *obs.Server
	if *obsAddr != "" {
		opt.obs = obs.NewWithOptions(obs.Options{Clock: func() int64 { return time.Now().UnixNano() }})
		if obsSrv, err = obs.Serve(*obsAddr, opt.obs); err != nil {
			die(err)
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
		die(err)
	}
}

// validate rejects flag combinations no demo can run, before anything
// is read, solved or put on the air.
func (opt liveOpts) validate() error {
	if opt.clients < 0 {
		return fmt.Errorf("-clients %d is negative", opt.clients)
	}
	if opt.kill > 0 && opt.restartAfter < 1 {
		return fmt.Errorf("-restart-after %d: the station must stay down at least one slot", opt.restartAfter)
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
	return nil
}

func run(in string, opt liveOpts, w io.Writer) error {
	if err := opt.validate(); err != nil {
		return err
	}
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
	sc, err := newScenario(t, prog, opt)
	if err != nil {
		return err
	}
	d := &driver{sc: sc, prog: prog, w: w}
	clients, err := d.predict(t, opt.seed, opt.clients)
	if err != nil {
		return err
	}
	if opt.kill > 0 {
		// The tower checkpoints every boundary; its restart warm-starts.
		dir, err := os.MkdirTemp("", "bcast-live-ckpt")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		sc.server.CheckpointPath, sc.server.Resume = filepath.Join(dir, "station.ckpt"), true
	}
	if err := d.start("127.0.0.1:0"); err != nil {
		return err
	}
	// Close the tower first: that ends any session still in flight.
	var wg sync.WaitGroup
	defer wg.Wait()
	defer func() { d.srv.Close() }()
	fmt.Fprintf(w, "broadcasting %d nodes over %d channels at %s (cycle %d slots)\n",
		t.NumNodes(), opt.k, d.addr, prog.CycleLen())
	if sc.banner != "" {
		fmt.Fprintln(w, sc.banner)
	}
	if m := sc.env.Model; m.Enabled() {
		fmt.Fprintf(w, "lossy medium: drop %.2f, corrupt %.2f, stall %.2f (seed %d)\n",
			m.Drop, m.Corrupt, m.Stall, m.Seed)
	}
	fmt.Fprintln(w)
	for i := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			d.session(cl)
			d.finished.Add(1)
		}(&clients[i])
	}
	if err := d.clock(len(clients)); err != nil {
		return err
	}
	return d.report(clients)
}

// scenario is one bcast-live demo: the static, lossy, batch, -swap,
// -outage and -kill runs differ only in this value.
type scenario struct {
	// tl is the broadcast as the analytic twin sees it; the tower airs
	// the same epochs at the same slots.
	tl *sim.Timeline
	// env is the one fault environment: the twin evaluates under it and
	// every client reads MaxRetries, DeadAir and Backoff from it. A crash
	// schedule in env.Downtimes arms every client's reconnect.
	env sim.FaultConfig
	// server configures every tower the driver brings up.
	server netcast.ServerOptions
	// stages are the programs the tower stages, in order: at the -swap
	// clock event, or at each watchdog live-set change under -outage.
	stages []*sim.Program
	// span bounds client arrivals: each is drawn from [0, span).
	span int
	// event, when non-nil, fires once when the clock reaches eventAt.
	event   func(*driver) error
	eventAt int
	// batch, when non-nil, is the key set every client retrieves as one
	// batch the planner schedules, instead of a single random lookup.
	batch   []tree.ID
	planner *retrieval.Planner
	// banner describes the demo under the broadcasting line; noun and
	// twin name the sessions and their simulator in the success line,
	// which summary opens from the tower and the clients' summed metrics.
	banner, noun, twin string
	summary            func(srv *netcast.Server, sum sim.Metrics) string
}

// newScenario builds the scenario opt selects over prog, compiled from t.
func newScenario(t *tree.Tree, prog *sim.Program, opt liveOpts) (*scenario, error) {
	L := prog.CycleLen()
	model := fault.Model{Seed: opt.seed, Drop: opt.drop, Corrupt: opt.corrupt, Stall: opt.stall}
	static, err := sim.NewTimeline(prog, 0)
	if err != nil {
		return nil, err
	}
	sc := &scenario{
		tl:      static,
		env:     sim.FaultConfig{Model: model, MaxRetries: opt.retries},
		server:  netcast.ServerOptions{Faults: model, Obs: opt.obs},
		span:    2 * L,
		noun:    "lookups",
		twin:    "analytic",
		summary: func(*netcast.Server, sim.Metrics) string { return "" },
	}
	switch {
	case len(opt.batchKeys) > 0:
		ids := t.DataIDs()
		for _, key := range opt.batchKeys {
			i := slices.IndexFunc(ids, func(id tree.ID) bool { k, _ := t.Key(id); return k == key })
			if i < 0 {
				return nil, fmt.Errorf("-batch key %d is not in the catalog", key)
			}
			sc.batch = append(sc.batch, ids[i])
		}
		cfg := retrieval.Config{Obs: opt.obs}
		if opt.obs != nil {
			cfg.Now = func() int64 { return time.Now().UnixNano() }
		}
		sc.planner = retrieval.New(cfg)
		sc.banner = fmt.Sprintf("batch retrieval: %d keys per client %v", len(sc.batch), opt.batchKeys)
		sc.noun = "batch retrievals"
		sc.summary = func(_ *netcast.Server, sum sim.Metrics) string {
			return fmt.Sprintf("%d conflicts rescheduled; ", sum.Conflicts)
		}

	case opt.swap > 0:
		prog2, err := rebuildRotated(t, opt.k)
		if err != nil {
			return nil, err
		}
		if sc.tl, err = sim.NewTimeline(prog, 1); err != nil {
			return nil, err
		}
		swapSlot, err := sc.tl.Stage(prog2, 2, opt.swap)
		if err != nil {
			return nil, err
		}
		sc.stages = []*sim.Program{prog2}
		sc.event, sc.eventAt = (*driver).stage, opt.swap
		// Arrivals cluster around the swap so descents straddle it.
		sc.span = swapSlot + 2*prog2.CycleLen()
		sc.banner = fmt.Sprintf("hot swap: epoch 2 (cycle %d slots) staged at slot %d, lands at cycle boundary %d",
			prog2.CycleLen(), opt.swap, swapSlot)
		sc.twin = "adaptive"
		sc.summary = func(srv *netcast.Server, sum sim.Metrics) string {
			return fmt.Sprintf("swaps landed: %d; %d descent restarts; ", srv.Swaps(), sum.Restarts)
		}

	case opt.outages.Enabled():
		wdog := cmp.Or(opt.watchdog, netcast.DefaultWatchdog)
		deadAir := cmp.Or(opt.deadAir, sim.DefaultDeadAir)
		maxEnd := 0
		for _, o := range opt.outages {
			maxEnd = max(maxEnd, o.EndSlot)
		}
		// The last detection is the recovery a watchdog's worth of live
		// slots after the last window closes; the tower's watchdog sees
		// the same schedule, so both replan at the same slots.
		events := opt.outages.Detections(opt.k, wdog, maxEnd+wdog)
		if sc.stages, err = experiment.ReplanPrograms(prog, events, opt.k); err != nil {
			return nil, err
		}
		var replans int
		if sc.tl, replans, err = experiment.ReplanTimeline(prog, events, sc.stages); err != nil {
			return nil, err
		}
		sc.env.Outages, sc.env.DeadAir = opt.outages, deadAir
		sc.server.Outages, sc.server.Watchdog = opt.outages, wdog
		// Arrivals spread across the outage windows so sessions hit dead
		// air before, during, and after the replans.
		sc.span = maxEnd + 2*L
		sc.banner = fmt.Sprintf("outages: %v; watchdog %d, dead air %d, %d replans will air",
			opt.outages, wdog, deadAir, replans)
		sc.twin = "outage"
		sc.summary = func(srv *netcast.Server, sum sim.Metrics) string {
			return fmt.Sprintf("swaps landed: %d; channels live: %v; %d channel failovers; ",
				srv.Swaps(), srv.ChannelsLive(), sum.Failovers)
		}

	case opt.kill > 0:
		down := fault.Downtime{StartSlot: opt.kill, EndSlot: opt.kill + opt.restartAfter}
		sc.env.Downtimes, sc.env.Backoff = fault.Downtimes{down}, fault.Backoff{Seed: opt.seed}
		sc.event, sc.eventAt = (*driver).restart, opt.kill
		// Arrivals spread up to the crash so sessions straddle it.
		sc.span = opt.kill + L
		sc.banner = fmt.Sprintf("crash test: station dies at slot %d, warm-starts from its checkpoint at slot %d",
			down.StartSlot, down.EndSlot)
		sc.twin = "restart"
		sc.summary = func(_ *netcast.Server, sum sim.Metrics) string {
			return fmt.Sprintf("%d client reconnects; ", sum.Reconnects)
		}
	}
	return sc, nil
}

// power is every client's radio: doze costs a twentieth of listening.
var power = sim.Power{Active: 1, Doze: 0.05}

// client is one live session and the twin's prediction for it.
type client struct {
	arrival          int
	key              int64
	plan             *sim.BatchPlan // batch scenarios only
	want, m          sim.Metrics    // predicted and measured
	wantFound, found bool
	wantErr, err     error
}

// driver runs one scenario: the tower, the clients and the clock.
type driver struct {
	sc   *scenario
	prog *sim.Program
	w    io.Writer
	addr string
	// mu orders client redials against the -kill restart, so a redial
	// never sees the port between the old tower and the new one.
	mu     sync.Mutex
	killed bool
	// srv and reg are the tower on the air; only the clock goroutine
	// touches them once the clients are running.
	srv *netcast.Server
	reg *epoch.Registry
	// staged counts the scenario programs staged so far; stageErr keeps
	// a staging failure inside the watchdog callback for the clock.
	staged   int
	stageErr error
	// finished counts the clients whose sessions are over and whose
	// connections the tower has let go of.
	finished atomic.Int64
}

// predict draws every client's arrival (and key) from the seed and asks
// the twin what the session will measure.
func (d *driver) predict(t *tree.Tree, seed int64, n int) ([]client, error) {
	rng := stats.NewRNG(seed)
	dataIDs := t.DataIDs()
	clients := make([]client, n)
	for i := range clients {
		cl := &clients[i]
		if d.sc.batch == nil {
			cl.key, _ = t.Key(dataIDs[rng.Intn(len(dataIDs))])
		}
		cl.arrival = rng.Intn(d.sc.span)
		var err error
		if d.sc.batch == nil {
			cl.want, cl.wantFound, cl.wantErr = d.sc.tl.QuerySwitch(cl.arrival, cl.key, power, d.sc.env)
		} else if cl.plan, err = d.sc.planner.PlanBatch(d.prog, cl.arrival, d.sc.batch); err != nil {
			return nil, err
		} else {
			cl.want, cl.wantErr = d.prog.QueryBatch(cl.plan, power, d.sc.env)
			cl.wantFound = cl.wantErr == nil
		}
		if cl.wantErr != nil && !errors.Is(cl.wantErr, fault.ErrRetryBudget) {
			return nil, cl.wantErr
		}
	}
	return clients, nil
}

// start brings up a tower airing the scenario on addr: cold on first
// start, warm from the checkpoint when the scenario keeps one.
func (d *driver) start(addr string) error {
	reg, err := epoch.NewRegistry(d.prog)
	if err != nil {
		return err
	}
	opts := d.sc.server
	opts.OnLiveChange = func([]int, int) { d.stageErr = errors.Join(d.stageErr, d.stage()) }
	srv, err := netcast.NewAdaptiveServer(reg, opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		return err
	}
	srv.Serve(ln)
	d.srv, d.reg, d.addr = srv, reg, ln.Addr().String()
	return nil
}

// stage parks the scenario's next program on the tower's registry; it
// lands at the tower's next cycle boundary.
func (d *driver) stage() error {
	if d.staged == len(d.sc.stages) {
		return nil
	}
	d.staged++
	_, err := d.reg.Stage(d.sc.stages[d.staged-1])
	return err
}

// restart kills the tower — listener, sockets and all — and warm-starts
// a fresh one from its last checkpoint on the same port. Redials wait
// for the new tower and are refused while the downtime window holds.
func (d *driver) restart() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.srv.Close()
	d.killed = true
	if err := d.start(d.addr); err != nil {
		return err
	}
	fmt.Fprintf(d.w, "station killed at slot %d; warm=%v, resumed at boundary %d\n\n",
		d.sc.eventAt, d.srv.Warm(), d.srv.Now())
	return nil
}

// dial connects a client to the station for a session listening from
// slot: the one dial site, for first connections and reconnects alike.
func (d *driver) dial(slot int) (net.Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.killed && slot < d.sc.env.Downtimes[0].EndSlot {
		return nil, fmt.Errorf("station down at slot %d", slot)
	}
	return net.Dial("tcp", d.addr)
}

// session runs one client against the tower and records what it
// measured. It returns only once the tower has let go of the client's
// connection.
func (d *driver) session(cl *client) {
	conn, err := d.dial(cl.arrival)
	if err != nil {
		cl.err = err
		return
	}
	c := netcast.NewClient(conn)
	c.MaxRetries, c.DeadAir, c.Backoff = d.sc.env.MaxRetries, d.sc.env.DeadAir, d.sc.env.Backoff
	c.Channels = d.prog.Channels()
	c.Instrument(d.sc.server.Obs)
	if d.sc.env.Downtimes.Enabled() {
		c.Redial = func(slot int) (net.Conn, error) {
			nc, err := d.dial(slot)
			if err == nil {
				conn = nc
			}
			return nc, err
		}
	}
	if cl.plan != nil {
		cl.m, cl.err = c.ReadBatch(cl.plan, power)
		cl.found = cl.err == nil
	} else {
		cl.found, _, cl.m, cl.err = c.Lookup(cl.arrival, cl.key, power)
	}
	// The session has detached. The tower unregisters a connection
	// before it closes its end, so once this read sees EOF the clock can
	// no longer count the client as attached.
	io.Copy(io.Discard, conn)
	c.Close()
}

// clock drives the broadcast until every client has reported and the
// timeline's last epoch has landed (so swap counts and the live channel
// set are final). It fires the scenario's event when the clock reaches
// its slot, and ticks only while every client still in flight is
// attached to the current tower: a clock that ran ahead would air slots
// a client still dialing or redialing is about to request.
func (d *driver) clock(clients int) error {
	entries := d.sc.tl.Entries()
	last := entries[len(entries)-1].Start
	fired := d.sc.event == nil
	for {
		finished, now := int(d.finished.Load()), d.srv.Now()
		switch {
		case finished == clients && now > last:
			return nil
		case !fired && now >= d.sc.eventAt:
			fired = true
			if err := d.sc.event(d); err != nil {
				return err
			}
		case d.srv.Conns() < clients-finished:
			time.Sleep(100 * time.Microsecond)
		default:
			if err := d.srv.Tick(); err != nil {
				return err
			}
			if d.stageErr != nil {
				return d.stageErr
			}
		}
	}
}

// report prints one row per client in client order and the verdict. A
// budget exhaustion the twin also predicts is an agreement, not a
// failure.
func (d *driver) report(clients []client) error {
	tw := tabwriter.NewWriter(d.w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "client\tarrival\tkey\tfound\taccess\ttuning\tretries\trestarts\tfailovers\treconnects\tenergy\tmatches simulator")
	var sum sim.Metrics
	failures := 0
	for i, cl := range clients {
		key := strconv.FormatInt(cl.key, 10)
		if cl.plan != nil {
			key = fmt.Sprintf("%d keys", len(d.sc.batch))
		}
		if cl.err != nil {
			if errors.Is(cl.err, fault.ErrRetryBudget) && errors.Is(cl.wantErr, fault.ErrRetryBudget) {
				fmt.Fprintf(tw, "%d\t%d\t%s\t-\t-\t-\t-\t-\t-\t-\t-\tbudget exhausted (as predicted)\n",
					i, cl.arrival, key)
				continue
			}
			return fmt.Errorf("client %d: %w", i, cl.err)
		}
		if cl.wantErr != nil {
			return fmt.Errorf("client %d: simulator predicted %v but the socket session succeeded", i, cl.wantErr)
		}
		m := cl.m
		match := m == cl.want && cl.found == cl.wantFound
		if !match || !cl.found {
			failures++
		}
		sum.Restarts += m.Restarts
		sum.Failovers += m.Failovers
		sum.Reconnects += m.Reconnects
		sum.Conflicts += m.Conflicts
		fmt.Fprintf(tw, "%d\t%d\t%s\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\t%v\n",
			i, cl.arrival, key, cl.found, m.AccessTime, m.TuningTime,
			m.Retries, m.Restarts, m.Failovers, m.Reconnects, m.Energy, match)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d clients diverged from the %s simulator", failures, len(clients), d.sc.twin)
	}
	fmt.Fprintf(d.w, "\n%sall %d live %s matched the %s simulator exactly\n",
		d.sc.summary(d.srv, sum), len(clients), d.sc.noun, d.sc.twin)
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

// rebuildRotated re-optimizes the same catalog under rotated demand: each
// key inherits its successor's weight, the shifting-popularity workload a
// real tower re-plans for. Keys and channel count are unchanged, so the
// epoch-2 tree is a legal hot-swap target.
func rebuildRotated(t *tree.Tree, channels int) (*sim.Program, error) {
	ids := t.DataIDs()
	items := make([]alphatree.Item, len(ids))
	for i, id := range ids {
		key, _ := t.Key(id)
		items[i] = alphatree.Item{Label: t.Label(id), Key: key, Weight: t.Weight(ids[(i+1)%len(ids)])}
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
