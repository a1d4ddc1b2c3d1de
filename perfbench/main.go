// Command perfbench is the end-to-end benchmark of the broadcast
// pipeline: catalog → alphatree → core → sim.Compile → epoch/wire →
// netcast tower Tick → client Lookup, driven through the real packages
// over loopback TCP. See README.md for the workloads and metrics.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics of a
// separate traced run and writes its spans under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment stamps every report with where it was measured.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Medium     string `json:"medium"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: lookup, adapt or replan")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the report and span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	env := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Workload: *name, Seed: *seed,
		Seconds: *seconds, Trace: *trace == 1, Medium: "loopback TCP in one process, not a real link",
	}
	sum, notes, err := execute(env, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# env %s\n", envLine)
	for _, n := range notes {
		fmt.Printf("# %s\n", n)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(*out, env, sum, notes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs the workload and returns its summary and report notes.
func execute(env environment, out string) (summary, []string, error) {
	if env.Seconds < 1 {
		return summary{}, nil, fmt.Errorf("--seconds %d, want >= 1", env.Seconds)
	}
	if _, ok := workloads[env.Workload]; !ok {
		return summary{}, nil, fmt.Errorf("unknown workload %q (want lookup, adapt or replan)", env.Workload)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return summary{}, nil, err
	}
	secs := float64(env.Seconds)
	if !env.Trace {
		b, err := newBench(env.Workload, env.Seed, nil)
		if err != nil {
			return summary{}, nil, err
		}
		if err := b.lv.run(secs, b.sz.horizon); err != nil {
			return summary{}, nil, err
		}
		return b.finish(false)
	}
	// The traced run: half the window untraced, then half traced on a
	// fresh set-up, so the tracing overhead is measured on equal terms.
	plain, err := newBench(env.Workload, env.Seed, nil)
	if err != nil {
		return summary{}, nil, err
	}
	if err := plain.lv.run(secs/2, 0); err != nil {
		return summary{}, nil, err
	}
	tr := newTracer()
	b, err := newBench(env.Workload, env.Seed, tr)
	if err != nil {
		return summary{}, nil, err
	}
	if err := b.lv.run(secs/2, 0); err != nil {
		return summary{}, nil, err
	}
	sum, notes, err := b.finish(true)
	if err != nil {
		return sum, notes, err
	}
	base := float64(plain.lv.ticks) / plain.lv.windowSec
	traced := float64(b.lv.ticks) / b.lv.windowSec
	sum.Metrics["trace.overhead_pct"] = metric{100 * (base/traced - 1), "%"}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", env.Workload, env.Seed))
	if err := tr.write(path); err != nil {
		return sum, notes, err
	}
	notes = append(notes, "spans written to "+path)
	return sum, notes, nil
}

// finish checks every output and assembles the metrics.
func (b *bench) finish(traced bool) (summary, []string, error) {
	lv := b.lv
	var notes []string
	ok := make([]bool, len(lv.results))
	failed := lv.late
	for i, r := range lv.results {
		if err := lv.twinErr(r); err != nil {
			failed++
			if len(notes) < 5 {
				notes = append(notes, "twin mismatch: "+err.Error())
			}
			continue
		}
		ok[i] = true
	}
	measured := b.st.ns["sim.evaluate"]
	attempted := len(lv.results) + len(measured) + len(b.st.ns["replan"])
	digest := fnv.New64a()
	if b.sp != nil {
		attempted += len(b.sp.staged)
		fmt.Fprintf(digest, "%x", b.sp.digest)
	} else {
		fmt.Fprintf(digest, "%d|%x", lv.timeline[0].prog.CycleLen(), math.Float64bits(b.static.Cost))
	}
	notes = append(notes, fmt.Sprintf("staged-program digest %016x over %d programs", digest.Sum64(), len(lv.timeline)))
	var m map[string]metric
	if traced {
		m = b.perLayer(measured)
	} else {
		m = b.endToEnd(ok, measured)
	}
	return summary{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, notes, nil
}

// endToEnd assembles the metrics a user of the system sees. Rates and
// compute times are totals over the timed window, which weigh the slow
// and fast phases of a shared machine by how long each lasted; the
// latency tail is the median over the window's chunks of each chunk's
// p99. A session that the benchmark's own off-clock work held up counts
// for the rate but not for the latency.
func (b *bench) endToEnd(ok []bool, measured []float64) map[string]metric {
	lv := b.lv
	var wall, access, tuning []float64
	perChunk := make([][]float64, chunks)
	done := 0
	restarts := 0
	for i, r := range lv.results {
		if ok[i] && !r.end.After(lv.windowEnd) {
			done++
			if !lv.paused(r) {
				ms := float64(r.wall.Nanoseconds()) / 1e6
				wall = append(wall, ms)
				c := lv.chunkOf(r.end)
				perChunk[c] = append(perChunk[c], ms)
			}
		}
		if r.arrival < b.sz.horizon {
			access = append(access, float64(r.m.AccessTime))
			tuning = append(tuning, float64(r.m.TuningTime))
			restarts += r.m.Restarts
		}
	}
	// Rates are per second of airing: time the benchmark's own off-clock
	// work held the clock is left out.
	airing := lv.windowSec - lv.stalled.Seconds()
	var tail []float64
	for _, c := range perChunk {
		if len(c) > 0 {
			tail = append(tail, quantile(c, 0.99))
		}
	}
	hits, misses := 0, 0
	for _, t := range lv.hits {
		if t < b.sz.horizon {
			hits++
		}
	}
	for _, t := range lv.misses {
		if t < b.sz.horizon {
			misses++
		}
	}
	var replan, dataWait []float64
	if b.sp == nil {
		replan = b.st.ns["replan"]
		dataWait = []float64{b.static.Cost}
	} else {
		for _, s := range b.sp.staged {
			if !s.at.After(lv.windowEnd) {
				replan = append(replan, float64(s.replan.Nanoseconds()))
			}
			if s.period*b.sz.period < b.sz.horizon {
				dataWait = append(dataWait, s.dataWait)
			}
		}
	}
	return map[string]metric{
		"lookups_per_s":       {float64(done) / airing, "1/s"},
		"lookup_ms.p50":       {quantile(wall, 0.5), "ms"},
		"lookup_ms.p99":       {quantile(tail, 0.5), "ms"},
		"slots_per_s":         {float64(lv.ticks) / airing, "1/s"},
		"access_slots.mean":   {mean(access), "slots"},
		"tuning_slots.mean":   {mean(tuning), "slots"},
		"descents_per_lookup": {1 + float64(restarts)/float64(max(len(access), 1)), "count"},
		"hit_ratio":           {float64(hits) / float64(max(hits+misses, 1)), "ratio"},
		"replan_ms.mean":      {mean(replan) / 1e6, "ms"},
		"replan_ms.p90":       {quantile(replan, 0.9) / 1e6, "ms"},
		"measure_ms.mean":     {mean(measured) / 1e6, "ms"},
		"data_wait.mean":      {mean(dataWait), "slots"},
		"setup_s":             {quantile(b.setupSec, 0.5), "s"},
	}
}

// offline are the planner layers whose allocations are reported.
var offline = []string{"hotset.close_period", "alphatree.build", "core.solve", "sim.compile", "epoch.stage", "sim.evaluate"}

// spanNames are the layers whose self time is reported.
var spanNames = []string{"session", "netcast.dial", "netcast.lookup_call", "netcast.tick", "period",
	"hotset.close_period", "alphatree.build", "core.solve", "sim.compile", "epoch.stage", "sim.evaluate"}

// perLayer assembles the traced run's per-layer metrics. A layer the
// workload never calls reads 0.
func (b *bench) perLayer(measured []float64) map[string]metric {
	lv, st := b.lv, b.st
	var dial, call []float64
	restarts := 0
	for _, r := range lv.results {
		dial = append(dial, float64(r.dial.Nanoseconds()))
		call = append(call, float64(r.call.Nanoseconds()))
		restarts += r.m.Restarts
	}
	framesPerTick := 0.0
	if lv.frameTicks > 0 {
		framesPerTick = float64(lv.frameTotal) / float64(lv.frameTicks)
	}
	m := map[string]metric{
		"netcast.idle_tick_ns.p50":    {lv.idle.quantile(0.5), "ns"},
		"netcast.deliver_tick_ns.p50": {lv.deliver.quantile(0.5), "ns"},
		"netcast.deliver_tick_ns.p99": {lv.deliver.quantile(0.99), "ns"},
		"netcast.frames_per_tick":     {framesPerTick, "count"},
		"netcast.dial_ns.p50":         {quantile(dial, 0.5), "ns"},
		"netcast.lookup_call_ns.p50":  {quantile(call, 0.5), "ns"},
		"netcast.swaps":               {float64(len(lv.timeline) - 1), "count"},
		"netcast.restarts":            {float64(restarts), "count"},
		"epoch.stage_ns.p50":          {quantile(st.ns["epoch.stage"], 0.5), "ns"},
		"hotset.close_period_ns.p50":  {quantile(st.ns["hotset.close_period"], 0.5), "ns"},
		"alphatree.build_ns.p50":      {quantile(st.ns["alphatree.build"], 0.5), "ns"},
		"core.solve_ns.p50":           {quantile(st.ns["core.solve"], 0.5), "ns"},
		"core.solve_ns.p90":           {quantile(st.ns["core.solve"], 0.9), "ns"},
		"core.expanded":               {float64(st.search.Expanded), "count"},
		"core.generated":              {float64(st.search.Generated), "count"},
		"core.dom_pruned":             {float64(st.search.DomPruned), "count"},
		"core.limit_fallbacks":        {float64(st.fallbacks), "count"},
		"sim.compile_ns.p50":          {quantile(st.ns["sim.compile"], 0.5), "ns"},
		"sim.evaluate_ns.p50":         {quantile(measured, 0.5), "ns"},
	}
	for _, name := range offline {
		m[name+".allocs"] = metric{quantile(st.mem.mallocs[name], 0.5), "count"}
		m[name+".bytes"] = metric{quantile(st.mem.totals[name], 0.5), "B"}
	}
	self := lv.tr.selfNanos()
	for _, name := range spanNames {
		m["self_ms."+name] = metric{float64(self[name]) / 1e6, "ms"}
	}
	return m
}

// writeReport keeps the run's environment, notes and summary as a file.
func writeReport(out string, env environment, sum summary, notes []string) error {
	data, err := json.MarshalIndent(struct {
		Env     environment `json:"env"`
		Notes   []string    `json:"notes"`
		Summary summary     `json:"summary"`
	}{env, notes, sum}, "", "  ")
	if err != nil {
		return err
	}
	kind := "e2e"
	if env.Trace {
		kind = "trace"
	}
	name := fmt.Sprintf("report-%s-seed%d-%s.json", strings.ReplaceAll(env.Workload, "/", "_"), env.Seed, kind)
	return os.WriteFile(filepath.Join(out, name), append(data, '\n'), 0o644)
}
