package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// subBits sets the resolution of logHist: each power of two is split into
// 1<<subBits buckets, so a reported quantile is within ~3% of the truth.
const subBits = 5

// logHist is a log-linear histogram of positive nanosecond durations. It
// takes the per-tick samples, of which a run has millions, in constant
// memory.
type logHist struct {
	counts [64 << subBits]int64
	n      int64
	sum    int64
}

func (h *logHist) add(v int64) {
	if v < 1 {
		v = 1
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

func bucketOf(v int64) int {
	e := bits.Len64(uint64(v)) - 1
	var sub int64
	if e >= subBits {
		sub = (v >> (e - subBits)) & (1<<subBits - 1)
	} else {
		sub = (v << (subBits - e)) & (1<<subBits - 1)
	}
	return e<<subBits | int(sub)
}

// quantile returns the midpoint of the bucket holding the q-quantile.
func (h *logHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n-1))
	var seen int64
	for i, c := range h.counts {
		if seen += c; seen > rank {
			e, sub := i>>subBits, i&(1<<subBits-1)
			lower := float64(int64(1)<<e) * (1 + float64(sub)/(1<<subBits))
			width := float64(int64(1)<<e) / (1 << subBits)
			return lower + width/2
		}
	}
	return 0
}

// span is one timed call into a layer, as written to the span file.
// Times are nanoseconds since the start of the traced window.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 for none
	Session int    `json:"session"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per layer call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// agg holds the total duration and call count of calls recorded in
	// aggregate only (idle ticks, of which a run has millions).
	agg map[string]*[2]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: map[string]*[2]int64{}}
}

// begin opens a span and returns its handle.
func (tr *tracer) begin(name string, parent, session int) int {
	if tr == nil {
		return -1
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Start: now, End: -1, Parent: parent, Session: session})
	return len(tr.spans) - 1
}

// end closes the span opened by begin.
func (tr *tracer) end(i int) {
	if tr == nil || i < 0 {
		return
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	tr.spans[i].End = now
	tr.mu.Unlock()
}

// record adds a finished span given its wall-clock bounds.
func (tr *tracer) record(name string, start, end time.Time, parent, session int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Start: start.Sub(tr.t0).Nanoseconds(),
		End: end.Sub(tr.t0).Nanoseconds(), Parent: parent, Session: session})
}

// aggregate counts a call that is kept only as a running total.
func (tr *tracer) aggregate(name string, d time.Duration) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	a := tr.agg[name]
	if a == nil {
		a = new([2]int64)
		tr.agg[name] = a
	}
	a[0] += d.Nanoseconds()
	a[1]++
}

// selfNanos returns each span name's self time: its spans' durations
// minus the time their child spans cover, plus the aggregated totals.
// Children of one span never overlap, so subtracting their durations is
// exact.
func (tr *tracer) selfNanos() map[string]int64 {
	self := map[string]int64{}
	if tr == nil {
		return self
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		if s.End < 0 {
			continue
		}
		self[s.Name] += s.End - s.Start
		if s.Parent >= 0 {
			self[tr.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	for name, a := range tr.agg {
		self[name] += a[0]
	}
	return self
}

// write stores every span, one JSON object a line, at path.
func (tr *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for name, a := range tr.agg {
		if _, err := fmt.Fprintf(w, "{\"aggregate\":%q,\"total_ns\":%d,\"calls\":%d}\n", name, a[0], a[1]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// allocMeter measures the allocations of one call on the calling
// goroutine. It reads the runtime's global counters, so it is used only
// in traced runs, where every other goroutine is parked behind the
// stopped broadcast clock.
type allocMeter struct {
	on              bool
	mallocs, totals map[string][]float64
	before          runtime.MemStats
}

func newAllocMeter(on bool) *allocMeter {
	return &allocMeter{on: on, mallocs: map[string][]float64{}, totals: map[string][]float64{}}
}

func (a *allocMeter) start() {
	if a.on {
		runtime.ReadMemStats(&a.before)
	}
}

func (a *allocMeter) stop(name string) {
	if !a.on {
		return
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	a.mallocs[name] = append(a.mallocs[name], float64(after.Mallocs-a.before.Mallocs))
	a.totals[name] = append(a.totals[name], float64(after.TotalAlloc-a.before.TotalAlloc))
}
