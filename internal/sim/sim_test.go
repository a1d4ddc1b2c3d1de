package sim

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/datatree"
	"repro/internal/heuristic"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/tree"
	"repro/internal/workload"
)

var testPower = Power{Active: 1, Doze: 0.05}

// fig1Program compiles the optimal 2-channel allocation of the example.
func fig1Program(t *testing.T, opt Options) *Program {
	t.Helper()
	res, err := topo.Exact(tree.Fig1(), 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(res.Alloc, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileRejectsBadRootPosition(t *testing.T) {
	tr := tree.Fig1()
	// Hand-build an allocation with the root NOT at channel 1 slot 1.
	pos := make([]alloc.Position, tr.NumNodes())
	seq := []string{"1", "2", "A", "B", "3", "E", "4", "C", "D"}
	for i, label := range seq {
		pos[tr.FindLabel(label)] = alloc.Position{Channel: 2, Slot: i + 1}
	}
	a, err := alloc.FromPositions(tr, 2, pos)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(a, Options{}); err == nil {
		t.Fatal("want error for root off channel 1")
	}
}

// TestQueryFromCycleStart: a client arriving exactly at the cycle start
// has zero probe wait and a data wait equal to the target's slot.
func TestQueryFromCycleStart(t *testing.T) {
	p := fig1Program(t, Options{})
	tr := p.Tree()
	for _, d := range tr.DataIDs() {
		m, err := p.Query(0, d, testPower)
		if err != nil {
			t.Fatalf("Query(%s): %v", tr.Label(d), err)
		}
		if m.ProbeWait != 0 {
			t.Errorf("%s: ProbeWait = %d, want 0", tr.Label(d), m.ProbeWait)
		}
		wantWait := 0
		for ch := 1; ch <= p.Channels(); ch++ {
			for s := 1; s <= p.CycleLen(); s++ {
				if p.BucketAt(ch, s).Node == d {
					wantWait = s
				}
			}
		}
		if m.DataWait != wantWait {
			t.Errorf("%s: DataWait = %d, want %d", tr.Label(d), m.DataWait, wantWait)
		}
		// Tuning = root + one bucket per tree level on the path.
		if want := tr.Level(d); m.TuningTime != want {
			t.Errorf("%s: TuningTime = %d, want %d", tr.Label(d), m.TuningTime, want)
		}
	}
}

// TestMidCycleArrivalPaysProbe: arriving later in the cycle costs a probe
// wait until the next cycle start.
func TestMidCycleArrivalPaysProbe(t *testing.T) {
	p := fig1Program(t, Options{})
	tr := p.Tree()
	a := tr.FindLabel("A")
	L := p.CycleLen()
	for arrival := 1; arrival < L; arrival++ {
		m, err := p.Query(arrival, a, testPower)
		if err != nil {
			t.Fatal(err)
		}
		want := L - arrival
		if m.ProbeWait != want {
			t.Errorf("arrival %d: ProbeWait = %d, want %d", arrival, m.ProbeWait, want)
		}
		// One extra tuning for the synchronization probe.
		if m.TuningTime != tr.Level(a)+1 {
			t.Errorf("arrival %d: TuningTime = %d, want %d", arrival, m.TuningTime, tr.Level(a)+1)
		}
	}
}

// TestEvaluateMatchesFormula1: the simulator's exact mean data wait equals
// the allocation's analytic Formula-1 value, and the mean probe wait is
// (L+1)/2 − 1/L·... — exactly (L-1)/2 + 1/L·0 pattern; we check the closed
// form Σ (L-s)/L over s=0..L-1 = (L-1)/2.
func TestEvaluateMatchesFormula1(t *testing.T) {
	res, err := topo.Exact(tree.Fig1(), 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(res.Alloc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Evaluate(p, testPower)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Alloc.DataWait(); math.Abs(s.DataWait-want) > 1e-9 {
		t.Fatalf("mean DataWait = %v, want Formula 1 = %v", s.DataWait, want)
	}
	L := float64(p.CycleLen())
	if want := (L - 1) / 2; math.Abs(s.ProbeWait-want) > 1e-9 {
		t.Fatalf("mean ProbeWait = %v, want %v", s.ProbeWait, want)
	}
	if s.AccessTime <= s.DataWait {
		t.Fatal("AccessTime should exceed DataWait")
	}
	if s.Energy <= 0 {
		t.Fatal("Energy should be positive")
	}
}

// TestRootCopiesCutProbeWait: filling empty channel-1 slots with root
// replicas reduces the mean probe wait and the energy (one fewer active
// read for clients that land on a copy) and never worsens the access
// time. We use a tree whose 2-channel optimum leaves a channel-1 slot
// empty mid-cycle: r(a:5 y(z(b:4 c:3))) yields slots
// {r},{a,y},{z},{b,c} with z following y onto channel 2.
func TestRootCopiesCutProbeWait(t *testing.T) {
	b := tree.NewBuilder()
	r := b.AddRoot("r")
	b.AddData(r, "a", 5)
	y := b.AddIndex(r, "y")
	z := b.AddIndex(y, "z")
	b.AddData(z, "b", 4)
	b.AddData(z, "c", 3)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := topo.Exact(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Compile(res.Alloc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := Compile(res.Alloc, Options{FillWithRootCopies: true})
	if err != nil {
		t.Fatal(err)
	}
	// The replica really occupies a previously-empty channel-1 slot.
	copies := 0
	for s := 1; s <= replicated.CycleLen(); s++ {
		if replicated.BucketAt(1, s).RootCopy {
			copies++
		}
	}
	if copies == 0 {
		t.Fatalf("no root copies inserted; allocation:\n%s", res.Alloc)
	}
	sp, err := Evaluate(plain, testPower)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Evaluate(replicated, testPower)
	if err != nil {
		t.Fatal(err)
	}
	if sr.ProbeWait >= sp.ProbeWait {
		t.Fatalf("root copies did not cut probe wait: %v >= %v", sr.ProbeWait, sp.ProbeWait)
	}
	if sr.Energy >= sp.Energy {
		t.Fatalf("root copies did not cut energy: %v >= %v", sr.Energy, sp.Energy)
	}
	if sr.AccessTime > sp.AccessTime+1e-9 {
		t.Fatalf("root copies worsened access time: %v > %v", sr.AccessTime, sp.AccessTime)
	}
}

// TestQueryKey drives keyed lookups end to end over a Hu-Tucker-shaped
// keyed tree broadcast on one channel.
func TestQueryKey(t *testing.T) {
	b := tree.NewBuilder()
	r := b.AddRoot("r")
	l := b.AddIndex(r, "l")
	b.AddKeyedData(l, "k10", 10, 5)
	b.AddKeyedData(l, "k20", 20, 3)
	rr := b.AddIndex(r, "rr")
	b.AddKeyedData(rr, "k30", 30, 2)
	b.AddKeyedData(rr, "k40", 40, 1)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := datatree.Search(tr, datatree.AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(res.Alloc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []int64{10, 20, 30, 40} {
		m, found, err := p.QueryKey(0, key, testPower)
		if err != nil {
			t.Fatalf("QueryKey(%d): %v", key, err)
		}
		if !found {
			t.Fatalf("QueryKey(%d): not found", key)
		}
		if m.DataWait < 1 {
			t.Fatalf("QueryKey(%d): DataWait = %d", key, m.DataWait)
		}
	}
	// Negative lookups terminate without finding.
	for _, key := range []int64{5, 15, 99} {
		_, found, err := p.QueryKey(0, key, testPower)
		if err != nil {
			t.Fatalf("QueryKey(%d): %v", key, err)
		}
		if found {
			t.Fatalf("QueryKey(%d): spurious hit", key)
		}
	}
	// QueryKey on an unkeyed tree errors.
	unkeyed, err := topo.Exact(tree.Fig1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	up, err := Compile(unkeyed.Alloc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := up.QueryKey(0, 10, testPower); err == nil {
		t.Fatal("want error for QueryKey on unkeyed tree")
	}
}

func TestQueryErrors(t *testing.T) {
	p := fig1Program(t, Options{})
	if _, err := p.Query(-1, p.Tree().FindLabel("A"), testPower); err == nil {
		t.Fatal("want error for negative arrival")
	}
	if _, err := p.Query(0, p.Tree().FindLabel("1"), testPower); err == nil {
		t.Fatal("want error for index-node target")
	}
}

func TestSingleNodeProgram(t *testing.T) {
	b := tree.NewBuilder()
	b.AddRootData("X", 2)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc.FromSequence(tr, []tree.ID{tr.Root()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Query(0, tr.Root(), testPower)
	if err != nil {
		t.Fatal(err)
	}
	if m.ProbeWait != 0 || m.DataWait != 1 || m.TuningTime != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// Property: for random trees and channel counts, every data node is
// retrievable from every arrival phase, the simulated data wait from the
// cycle start equals the allocation slot, and Evaluate matches Formula 1.
func TestQuickSimulatorAgreesWithAnalytic(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		tr, err := workload.Random(workload.RandomConfig{
			NumData: 1 + rng.Intn(10),
			Dist:    stats.Uniform{Lo: 1, Hi: 100},
		}, rng)
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(3)
		a, err := heuristic.AllocateSorted(tr, k)
		if err != nil {
			return false
		}
		st := a.Tree()
		for _, withCopies := range []bool{false, true} {
			p, err := Compile(a, Options{FillWithRootCopies: withCopies})
			if err != nil {
				t.Logf("seed=%d: compile: %v", seed, err)
				return false
			}
			for _, d := range st.DataIDs() {
				m, err := p.Query(0, d, testPower)
				if err != nil {
					t.Logf("seed=%d: query %s: %v", seed, st.Label(d), err)
					return false
				}
				if !withCopies && m.DataWait != a.Slot(d) {
					t.Logf("seed=%d: %s wait %d != slot %d", seed, st.Label(d), m.DataWait, a.Slot(d))
					return false
				}
			}
			if !withCopies {
				s, err := Evaluate(p, testPower)
				if err != nil {
					return false
				}
				if math.Abs(s.DataWait-a.DataWait()) > 1e-9 {
					t.Logf("seed=%d: Evaluate %v != Formula1 %v", seed, s.DataWait, a.DataWait())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: root replication never makes any single query slower than the
// plain program by more than a full cycle, and never breaks retrieval.
func TestQuickRootCopiesSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		tr, err := workload.Random(workload.RandomConfig{
			NumData: 2 + rng.Intn(8),
			Dist:    stats.Uniform{Lo: 1, Hi: 100},
		}, rng)
		if err != nil {
			return false
		}
		a, err := heuristic.AllocateSorted(tr, 2)
		if err != nil {
			return false
		}
		p, err := Compile(a, Options{FillWithRootCopies: true})
		if err != nil {
			return false
		}
		st := a.Tree()
		for _, d := range st.DataIDs() {
			for arr := 0; arr < p.CycleLen(); arr++ {
				if _, err := p.Query(arr, d, testPower); err != nil {
					t.Logf("seed=%d arr=%d target=%s: %v", seed, arr, st.Label(d), err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkQuery times one point query on a perfect medium: by node on
// the example tree and on a 12-key Hu–Tucker tree, and by key on the
// same keyed tree (QueryKey, and QuerySwitch on its single-epoch
// timeline). Each must allocate nothing.
func BenchmarkQuery(b *testing.B) {
	res, err := topo.Exact(tree.Fig1(), 2)
	if err != nil {
		b.Fatal(err)
	}
	fig1, err := Compile(res.Alloc, Options{})
	if err != nil {
		b.Fatal(err)
	}
	a, err := heuristic.AllocateSorted(huTuckerTree(b, 12, &stats.Zipf{Theta: 0.8}, 1), 2)
	if err != nil {
		b.Fatal(err)
	}
	keyed, err := Compile(a, Options{})
	if err != nil {
		b.Fatal(err)
	}
	d := fig1.Tree().FindLabel("D")
	last := keyed.Tree().DataIDs()[keyed.Tree().NumData()-1]
	lastKey, _ := keyed.Tree().Key(last)
	tl := keyed.timeline()
	for _, c := range []struct {
		name  string
		p     *Program
		query func(p *Program, arrival int) error
	}{
		{"node", fig1, func(p *Program, arrival int) error {
			_, err := p.Query(arrival, d, testPower)
			return err
		}},
		{"keyed-node", keyed, func(p *Program, arrival int) error {
			_, err := p.Query(arrival, last, testPower)
			return err
		}},
		{"key", keyed, func(p *Program, arrival int) error {
			_, found, err := p.QueryKey(arrival, lastKey, testPower)
			if err == nil && !found {
				err = fmt.Errorf("key %d not found", lastKey)
			}
			return err
		}},
		{"switch", keyed, func(p *Program, arrival int) error {
			_, _, err := tl.QuerySwitch(arrival, lastKey, testPower, FaultConfig{})
			return err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.query(c.p, i%c.p.CycleLen()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestQueryConcurrent: queries on one program from several goroutines at
// once, which share the pool of analytic sessions, return what the same
// queries return one at a time.
func TestQueryConcurrent(t *testing.T) {
	a, err := heuristic.AllocateSorted(huTuckerTree(t, 12, &stats.Zipf{Theta: 0.8}, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(a, Options{FillWithRootCopies: true})
	if err != nil {
		t.Fatal(err)
	}
	ds := p.Tree().DataIDs()
	want := make([]Metrics, len(ds)*p.CycleLen())
	for i := range want {
		if want[i], err = p.Query(i%p.CycleLen(), ds[i/p.CycleLen()], testPower); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				d := ds[i/p.CycleLen()]
				key, _ := p.Tree().Key(d)
				m, err := p.Query(i%p.CycleLen(), d, testPower)
				km, found, kerr := p.QueryKey(i%p.CycleLen(), key, testPower)
				if err != nil || kerr != nil || !found || m != want[i] || km != want[i] {
					t.Errorf("query %d: Query %+v, %v; QueryKey %+v, %v, %v; serial %+v", i, m, err, km, found, kerr, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvaluatePerItemConsistent: the weighted average of the per-item
// metrics must equal the aggregate Evaluate, and each item's mean data
// wait equals its slot for non-replicated programs.
func TestEvaluatePerItemConsistent(t *testing.T) {
	res, err := topo.Exact(tree.Fig1(), 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(res.Alloc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	items, err := EvaluatePerItem(p, testPower)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != p.Tree().NumData() {
		t.Fatalf("items = %d", len(items))
	}
	agg, err := Evaluate(p, testPower)
	if err != nil {
		t.Fatal(err)
	}
	var wSum, waitSum, accSum float64
	for _, im := range items {
		wSum += im.Weight
		waitSum += im.Weight * im.DataWait
		accSum += im.Weight * im.AccessTime
		// Non-replicated: data wait is phase-independent and equals the slot.
		id := p.Tree().FindLabel(im.Label)
		if math.Abs(im.DataWait-float64(res.Alloc.Slot(id))) > 1e-9 {
			t.Errorf("%s: mean wait %g != slot %d", im.Label, im.DataWait, res.Alloc.Slot(id))
		}
	}
	if math.Abs(waitSum/wSum-agg.DataWait) > 1e-9 {
		t.Fatalf("per-item wait %g != aggregate %g", waitSum/wSum, agg.DataWait)
	}
	if math.Abs(accSum/wSum-agg.AccessTime) > 1e-9 {
		t.Fatalf("per-item access %g != aggregate %g", accSum/wSum, agg.AccessTime)
	}
}

// timeline is the single-epoch timeline of p: how a test runs the keyed
// protocol in a faulty environment on a static program.
func (p *Program) timeline() *Timeline {
	tl, err := NewTimeline(p, 0)
	if err != nil {
		panic(err)
	}
	return tl
}
