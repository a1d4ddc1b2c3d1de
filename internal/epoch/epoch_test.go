package epoch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/heuristic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/workload"
)

func prog(t *testing.T, n, k int, seed int64) *sim.Program {
	t.Helper()
	rng := stats.NewRNG(seed)
	items := make([]alphatree.Item, n)
	for i := range items {
		items[i] = alphatree.Item{
			Label:  fmt.Sprintf("i%d", i),
			Key:    int64(i + 1),
			Weight: float64(1 + rng.Intn(100)),
		}
	}
	tr, err := alphatree.HuTucker(items)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(tr, core.Config{Channels: k})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Compile(sol.Alloc, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stampOf decodes one packet and returns its epoch stamp.
func stampOf(t *testing.T, packets [][][]byte) uint32 {
	t.Helper()
	b, err := wire.Unmarshal(packets[0][0])
	if err != nil {
		t.Fatal(err)
	}
	return b.Epoch
}

func TestRegistryLifecycle(t *testing.T) {
	p1 := prog(t, 8, 2, 1)
	r, err := NewRegistry(p1)
	if err != nil {
		t.Fatal(err)
	}
	cur := r.Current()
	if cur.ID != 1 || cur.Prog != p1 {
		t.Fatalf("current = %d/%p", cur.ID, cur.Prog)
	}
	if got := stampOf(t, cur.Packets); got != 1 {
		t.Fatalf("epoch 1 packets stamped %d", got)
	}
	if _, ok := r.Pending(); ok {
		t.Fatal("fresh registry has a pending epoch")
	}
	if _, swapped := r.TrySwap(); swapped {
		t.Fatal("swap landed with nothing staged")
	}

	// Stage twice: the second replaces the first (at-most-one pending).
	p2, p3 := prog(t, 8, 2, 2), prog(t, 8, 2, 3)
	if id, err := r.Stage(p2); err != nil || id != 2 {
		t.Fatalf("stage p2: id %d err %v", id, err)
	}
	if id, err := r.Stage(p3); err != nil || id != 3 {
		t.Fatalf("stage p3: id %d err %v", id, err)
	}
	if id, ok := r.Pending(); !ok || id != 3 {
		t.Fatalf("pending = %d/%v, want 3", id, ok)
	}
	cur, swapped := r.TrySwap()
	if !swapped || cur.ID != 3 || cur.Prog != p3 {
		t.Fatalf("swap = %d/%v", cur.ID, swapped)
	}
	if got := stampOf(t, cur.Packets); got != 3 {
		t.Fatalf("epoch 3 packets stamped %d", got)
	}
	if _, ok := r.Pending(); ok {
		t.Fatal("pending survives the swap")
	}
	if staged, swaps := r.Stats(); staged != 2 || swaps != 1 {
		t.Fatalf("stats = %d staged %d swapped", staged, swaps)
	}

	// A channel-count change is rejected.
	if _, err := r.Stage(prog(t, 8, 3, 4)); err == nil {
		t.Fatal("want error for channel-count change")
	}
}

func TestRegistryConcurrentStage(t *testing.T) {
	r, err := NewRegistry(prog(t, 8, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	ids := make([]uint32, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := r.Stage(prog(t, 8, 2, int64(i+2)))
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	seen := map[uint32]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate epoch ID %d", id)
		}
		seen[id] = true
	}
	// The survivor's packets carry its own ID.
	cur, swapped := r.TrySwap()
	if !swapped {
		t.Fatal("no pending after concurrent staging")
	}
	if got := stampOf(t, cur.Packets); got != cur.ID {
		t.Fatalf("packets stamped %d, entry ID %d", got, cur.ID)
	}
}

func TestPlannerStagesBuilds(t *testing.T) {
	r, err := NewRegistry(prog(t, 8, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	built := make(chan struct{}, 16)
	pl := NewPlanner(context.Background(), r, func(ctx context.Context) (*sim.Program, error) {
		defer func() { built <- struct{}{} }()
		return prog(t, 8, 2, 99), nil
	}, PlannerOptions{})
	defer pl.Close()
	pl.Request()
	<-built
	// The build has returned; staging follows promptly. Close() joins the
	// loop goroutine, after which the registry state is settled.
	pl.Close()
	if id, ok := r.Pending(); !ok || id != 2 {
		t.Fatalf("pending = %d/%v after planner build", id, ok)
	}
	st, buildErr := pl.Stats()
	if buildErr != nil || st.Builds != 1 || st.Staged != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v err %v", st, buildErr)
	}
}

func TestPlannerCoalescesRequests(t *testing.T) {
	r, err := NewRegistry(prog(t, 8, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	started := make(chan struct{})
	pl := NewPlanner(context.Background(), r, func(ctx context.Context) (*sim.Program, error) {
		started <- struct{}{}
		<-gate
		return prog(t, 8, 2, 50), nil
	}, PlannerOptions{})
	pl.Request()
	<-started // first build in flight
	for i := 0; i < 10; i++ {
		pl.Request() // all of these coalesce into one follow-up
	}
	gate <- struct{}{}
	<-started // the single coalesced follow-up
	gate <- struct{}{}
	pl.Close()
	st, buildErr := pl.Stats()
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	if st.Builds != 2 || st.Staged != 2 {
		t.Fatalf("stats = %+v, want 2 coalesced builds", st)
	}
}

func TestPlannerRecordsFailures(t *testing.T) {
	r, err := NewRegistry(prog(t, 8, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	built := make(chan struct{})
	pl := NewPlanner(context.Background(), r, func(ctx context.Context) (*sim.Program, error) {
		defer close(built)
		return nil, boom
	}, PlannerOptions{})
	pl.Request()
	<-built
	pl.Close()
	st, buildErr := pl.Stats()
	if !errors.Is(buildErr, boom) || st.Failed != 1 || st.Staged != 0 {
		t.Fatalf("stats = %+v err %v", st, buildErr)
	}
	// Build failures carry the typed sentinel so install paths can
	// distinguish "planner broke" from transport errors.
	if !errors.Is(buildErr, ErrBuildFailed) {
		t.Fatalf("err %v does not wrap ErrBuildFailed", buildErr)
	}
	if _, ok := r.Pending(); ok {
		t.Fatal("failed build staged a program")
	}
}

func TestPlannerHonorsContext(t *testing.T) {
	r, err := NewRegistry(prog(t, 8, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan struct{})
	pl := NewPlanner(ctx, r, func(ctx context.Context) (*sim.Program, error) {
		close(blocked)
		<-ctx.Done() // a well-behaved solver observes cancellation
		return nil, ctx.Err()
	}, PlannerOptions{})
	pl.Request()
	<-blocked
	cancel()
	pl.Close() // must not hang
	if _, ok := r.Pending(); ok {
		t.Fatal("cancelled build staged a program")
	}
}

// BenchmarkStage times staging the 3-channel sorting program of a
// 1,000-key Zipf(0.8) Hu–Tucker catalog into a registry, which encodes
// every bucket under the next epoch ID.
func BenchmarkStage(b *testing.B) {
	cat := workload.Catalog(1000, &stats.Zipf{Theta: 0.8}, stats.NewRNG(1))
	items := make([]alphatree.Item, len(cat))
	for i, it := range cat {
		items[i] = alphatree.Item{Label: it.Label, Key: it.Key, Weight: it.Weight}
	}
	tr, err := alphatree.HuTucker(items)
	if err != nil {
		b.Fatal(err)
	}
	a, err := heuristic.AllocateSorted(tr, 3)
	if err != nil {
		b.Fatal(err)
	}
	p, err := sim.Compile(a, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	reg, err := NewRegistry(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Stage(p); err != nil {
			b.Fatal(err)
		}
	}
}
