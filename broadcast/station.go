package broadcast

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/epoch"
	"repro/internal/hotset"
	"repro/internal/obs"
	"repro/internal/searchstats"
)

// StationConfig tunes a Station.
type StationConfig struct {
	// HotSize is how many items fit on the air (the broadcast's data
	// capacity). Required.
	HotSize int
	// Channels and Fanout shape the broadcast (defaults: 1 channel,
	// fanout 2).
	Channels, Fanout int
	// Decay ages demand counters each period; in (0,1), default 0.5.
	Decay float64
	// MinChurn is how many hot-set replacements it takes to trigger a
	// rebuild at the end of a period (default 1: any change rebuilds).
	MinChurn int
	// MaxExpanded caps each rebuild's exact-search effort (0 =
	// unlimited). When a rebuild trips the cap it falls back to the
	// sorting heuristic instead of failing — a station must always stay
	// on the air.
	MaxExpanded int
	// Obs receives the station's counters (periods, hits, misses, plans,
	// installs, limit fallbacks), the station_plan_ns latency histogram,
	// per-rebuild search-effort counters bridged from the solver, and
	// period/plan/install trace events; nil disables instrumentation.
	Obs *obs.Registry
	// NowNanos is the clock used to time plans. Defaults to the wall
	// clock; injectable so tests observe deterministic latencies.
	NowNanos func() int64
}

// stationObs bundles the station's instrument handles; all handles are
// nil-safe, so a zero bundle (no registry) makes every call a no-op.
type stationObs struct {
	reg                                               *obs.Registry
	periods, hits, misses, plans, installs, fallbacks *obs.Counter
	planNs                                            *obs.Histogram
	hot                                               *obs.Gauge
}

func newStationObs(r *obs.Registry) stationObs {
	return stationObs{
		reg:       r,
		periods:   r.Counter("station_periods_total"),
		hits:      r.Counter("station_hits_total"),
		misses:    r.Counter("station_misses_total"),
		plans:     r.Counter("station_plans_total"),
		installs:  r.Counter("station_installs_total"),
		fallbacks: r.Counter("station_limit_fallbacks_total"),
		planNs:    r.Histogram("station_plan_ns", obs.DefaultLatencyBounds),
		hot:       r.Gauge("station_hot_keys"),
	}
}

// Station runs the complete server loop of a broadcast system — all three
// research directions of the paper's Section 1 in one object:
//
//  1. determining the data for broadcasting: demand over an arbitrary key
//     universe is tracked with decayed counters and the hottest HotSize
//     items are selected each period;
//  2. scheduling: the selected items are allocated over the channels by
//     the optimal/heuristic solver;
//  3. indexing: the broadcast carries the alphabetic index tree clients
//     descend.
//
// Keys outside the current hot set are misses — in a deployment they
// would be served by the on-demand uplink. All methods are safe for
// concurrent use.
type Station struct {
	cfg    StationConfig
	est    *hotset.Estimator
	labels map[int64]string
	om     stationObs
	now    func() int64

	mu  sync.Mutex
	hot []hotset.HotKey
	// hotKeys indexes s.hot so the per-request Record/OnAir checks are
	// O(1) instead of a scan of the hot set.
	hotKeys  map[int64]struct{}
	sched    *Schedule
	rebuilds int
	hits     int
	misses   int
}

// HotKey is one selected item of a station's hot set: its key and the
// decayed demand estimate that put it on the air.
type HotKey = hotset.HotKey

// NewStation creates a station over the given key universe. The items'
// weights seed the demand estimator so the first period starts from the
// assumed popularity rather than from nothing.
func NewStation(universe []Item, cfg StationConfig) (*Station, error) {
	if len(universe) == 0 {
		return nil, fmt.Errorf("broadcast: empty universe")
	}
	if cfg.HotSize < 1 {
		return nil, fmt.Errorf("broadcast: HotSize %d, want >= 1", cfg.HotSize)
	}
	if cfg.Channels == 0 {
		cfg.Channels = 1
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = 2
	}
	if cfg.MinChurn == 0 {
		cfg.MinChurn = 1
	}
	est, err := hotset.New(hotset.Config{Decay: cfg.Decay})
	if err != nil {
		return nil, err
	}
	s := &Station{cfg: cfg, est: est, labels: make(map[int64]string, len(universe)),
		om: newStationObs(cfg.Obs), now: cfg.NowNanos}
	if s.now == nil {
		s.now = func() int64 { return time.Now().UnixNano() }
	}
	for _, it := range universe {
		if math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) {
			return nil, fmt.Errorf("broadcast: key %d has weight %v, want a finite number", it.Key, it.Weight)
		}
		if _, dup := s.labels[it.Key]; dup {
			return nil, fmt.Errorf("broadcast: duplicate key %d", it.Key)
		}
		s.labels[it.Key] = it.Label
		// Seed the prior: one synthetic access per started unit of
		// weight, added at once.
		if it.Weight > 0 {
			if err := est.Add(it.Key, math.Ceil(it.Weight)); err != nil {
				return nil, err
			}
		}
	}
	sel, _ := est.Select(cfg.HotSize)
	sched, err := s.PlanSelection(sel)
	if err != nil {
		return nil, err
	}
	s.Install(sel, sched)
	return s, nil
}

// Record counts one client request. It reports whether the key is
// currently on the air (a broadcast hit) or must be served on demand.
func (s *Station) Record(key int64) (onAir bool) {
	s.est.Record(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.hotKeys[key]; ok {
		s.hits++
		s.om.hits.Inc()
		return true
	}
	s.misses++
	s.om.misses.Inc()
	return false
}

// EndPeriod closes one broadcast period: demand decays, the hot set is
// re-selected, and the broadcast is rebuilt when at least MinChurn items
// changed. It reports whether a rebuild happened and the new selection's
// demand coverage. The rebuilt broadcast carries exactly the selection
// that passed the churn check — the selection is threaded through
// PlanSelection/Install rather than re-drawn.
//
// EndPeriod is the synchronous composition of the three phases a live
// tower runs separately: ClosePeriod (decay + select), PlanSelection
// (solve, possibly in a background planner goroutine) and Install (swap
// the result in).
func (s *Station) EndPeriod() (rebuilt bool, coverage float64, err error) {
	next, coverage := s.ClosePeriod()
	s.mu.Lock()
	churn := hotset.Churn(s.hot, next)
	s.mu.Unlock()
	if churn < s.cfg.MinChurn {
		return false, coverage, nil
	}
	sched, err := s.PlanSelection(next)
	if err != nil {
		return false, coverage, err
	}
	s.Install(next, sched)
	return true, coverage, nil
}

// ClosePeriod ages the demand counters and selects the next period's hot
// set, returning it with its demand coverage. It does not touch the
// broadcast — pass the selection to PlanSelection/Install (or let
// EndPeriod do all three).
func (s *Station) ClosePeriod() ([]HotKey, float64) {
	s.est.Tick()
	sel, coverage := s.est.Select(s.cfg.HotSize)
	s.om.periods.Inc()
	s.om.reg.Emit("period_close",
		obs.A("hot", int64(len(sel))),
		obs.A("coverage_ppm", int64(coverage*1e6)))
	return sel, coverage
}

// PlanSelection re-optimizes the broadcast for exactly the given
// selection. It mutates no station state, so a live tower can run it in
// a background planner goroutine while the current schedule stays on the
// air; sel is sorted by key in place.
func (s *Station) PlanSelection(sel []HotKey) (*Schedule, error) {
	if len(sel) == 0 {
		return nil, fmt.Errorf("broadcast: no demand tracked; nothing to put on air")
	}
	slices.SortFunc(sel, func(a, b HotKey) int { return cmp.Compare(a.Key, b.Key) })
	items := make([]Item, len(sel))
	for i, h := range sel {
		label := s.labels[h.Key]
		if label == "" {
			label = fmt.Sprintf("key-%d", h.Key)
		}
		w := h.Weight
		if w <= 0 {
			w = 1
		}
		items[i] = Item{Label: label, Key: h.Key, Weight: w}
	}
	t, err := NewCatalogTree(items, s.cfg.Fanout)
	if err != nil {
		return nil, err
	}
	start := s.now()
	sched, err := Optimize(t, Options{
		Channels:        s.cfg.Channels,
		Polish:          true,
		MaxExpanded:     s.cfg.MaxExpanded,
		FallbackOnLimit: true,
	})
	if err != nil {
		return nil, err
	}
	elapsed := s.now() - start
	s.om.plans.Inc()
	s.om.planNs.Observe(elapsed)
	searchstats.Publish(s.om.reg, sched.Stats)
	optimal := int64(0)
	if sched.Optimal {
		optimal = 1
	}
	if sched.LimitErr != nil {
		s.om.fallbacks.Inc()
	}
	s.om.reg.Emit("plan", obs.A("optimal", optimal), obs.A("ns", elapsed))
	return sched, nil
}

// InstallPlanned puts a planned schedule on the air for the given
// selection, surfacing a failed plan instead of silently keeping the
// stale program: a nil schedule — what an async planner hands over when
// its build errored — is rejected with an error wrapping
// epoch.ErrBuildFailed, and the previously installed schedule stays on
// the air. Callers distinguish the case with errors.Is.
func (s *Station) InstallPlanned(sel []HotKey, sched *Schedule) error {
	if sched == nil {
		return fmt.Errorf("%w: station keeps the stale schedule on the air", epoch.ErrBuildFailed)
	}
	s.Install(sel, sched)
	return nil
}

// Install puts a planned schedule on the air for the given selection.
func (s *Station) Install(sel []HotKey, sched *Schedule) {
	keys := make(map[int64]struct{}, len(sel))
	for _, h := range sel {
		keys[h.Key] = struct{}{}
	}
	s.mu.Lock()
	s.hot = sel
	s.hotKeys = keys
	s.sched = sched
	s.rebuilds++
	s.mu.Unlock()
	s.om.installs.Inc()
	s.om.hot.Set(int64(len(sel)))
	s.om.reg.Emit("install", obs.A("hot", int64(len(sel))))
}

// Schedule returns the current broadcast schedule.
func (s *Station) Schedule() *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched
}

// OnAir reports whether key is in the current hot set.
func (s *Station) OnAir(key int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.hotKeys[key]
	return ok
}

// Stats returns lifetime counters: broadcast hits, on-demand misses, and
// schedule rebuilds.
func (s *Station) Stats() (hits, misses, rebuilds int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.rebuilds
}
