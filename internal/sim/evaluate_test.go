package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/alphatree"
	"repro/internal/fault"
	"repro/internal/heuristic"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

// oracleEvaluate is the definition EvaluateFaulty must reproduce: one
// QueryFaulty per (target, phase), averaged in catalog order.
func oracleEvaluate(p *Program, pw Power, fc FaultConfig) (Summary, error) {
	var s Summary
	total := p.t.TotalWeight()
	if total == 0 {
		return s, fmt.Errorf("sim: zero total weight")
	}
	phases := float64(p.cycleLen)
	for _, d := range p.t.DataIDs() {
		w := p.t.Weight(d) / total
		for a := 0; a < p.cycleLen; a++ {
			m, err := p.QueryFaulty(a, d, pw, fc)
			if err != nil {
				return s, err
			}
			s.ProbeWait += w * float64(m.ProbeWait) / phases
			s.DataWait += w * float64(m.DataWait) / phases
			s.AccessTime += w * float64(m.AccessTime) / phases
			s.TuningTime += w * float64(m.TuningTime) / phases
			s.Retries += w * float64(m.Retries) / phases
			s.Restarts += w * float64(m.Restarts) / phases
			s.Failovers += w * float64(m.Failovers) / phases
			s.Reconnects += w * float64(m.Reconnects) / phases
			s.Energy += w * m.Energy / phases
		}
	}
	return s, nil
}

// oracleEvaluatePerItem is the definition EvaluatePerItem must reproduce:
// one Query per phase for each data item.
func oracleEvaluatePerItem(p *Program, pw Power) ([]ItemMetrics, error) {
	phases := float64(p.cycleLen)
	out := make([]ItemMetrics, 0, p.t.NumData())
	for _, d := range p.t.DataIDs() {
		im := ItemMetrics{Label: p.t.Label(d), Weight: p.t.Weight(d)}
		if k, ok := p.t.Key(d); ok {
			im.Key = k
		}
		for a := 0; a < p.cycleLen; a++ {
			m, err := p.Query(a, d, pw)
			if err != nil {
				return nil, err
			}
			im.DataWait += float64(m.DataWait) / phases
			im.AccessTime += float64(m.AccessTime) / phases
			im.TuningTime += float64(m.TuningTime) / phases
			im.Energy += m.Energy / phases
		}
		out = append(out, im)
	}
	return out, nil
}

// huTuckerTree builds a keyed Hu–Tucker search tree over n catalog items
// with weights drawn from dist.
func huTuckerTree(t testing.TB, n int, dist stats.Dist, seed int64) *tree.Tree {
	t.Helper()
	cat := workload.Catalog(n, dist, stats.NewRNG(seed))
	items := make([]alphatree.Item, len(cat))
	for i, it := range cat {
		items[i] = alphatree.Item{Label: it.Label, Key: it.Key, Weight: it.Weight}
	}
	tr, err := alphatree.HuTucker(items)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// sparseAllocation places each node on a random channel at a slot past
// its parent, sometimes skipping a slot, so channel 1 keeps empty slots
// for root copies.
func sparseAllocation(t testing.TB, tr *tree.Tree, k int, rng *rand.Rand) *alloc.Allocation {
	t.Helper()
	pos := make([]alloc.Position, tr.NumNodes())
	free := make([]int, k+1)
	for ch := range free {
		free[ch] = 1
	}
	queue := []tree.ID{tr.Root()}
	for len(queue) > 0 {
		id := queue[0]
		queue = append(queue[1:], tr.Children(id)...)
		ch, s := 1, 1
		if id != tr.Root() {
			ch = 1 + rng.Intn(k)
			s = max(free[ch], pos[tr.Parent(id)].Slot+1) + rng.Intn(2)
		}
		pos[id] = alloc.Position{Channel: ch, Slot: s}
		free[ch] = s + 1
	}
	a, err := alloc.FromPositions(tr, k, pos)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

type namedProgram struct {
	name string
	p    *Program
}

// differentialPrograms returns seeded programs over keyed Hu–Tucker trees,
// full m-ary trees and random trees on 1–4 channels, each packed by the
// sorting heuristic and spread by sparseAllocation and each compiled with
// and without root copies, plus the single-node program and programs
// remapped onto a wider tower.
func differentialPrograms(t *testing.T) []namedProgram {
	t.Helper()
	var out []namedProgram
	for seed := int64(1); seed <= 120; seed++ {
		rng := stats.NewRNG(seed)
		k := 1 + int(seed%4)
		var tr *tree.Tree
		var err error
		switch seed % 3 {
		case 0:
			tr = huTuckerTree(t, 1+rng.Intn(40), &stats.Zipf{Theta: 0.8}, seed)
		case 1:
			tr, err = workload.FullMAry(2+rng.Intn(3), 2+rng.Intn(2), stats.Normal{Mu: 100, Sigma: 30}, rng)
		default:
			tr, err = workload.Random(workload.RandomConfig{NumData: 1 + rng.Intn(12), Dist: stats.Uniform{Lo: 1, Hi: 100}}, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := heuristic.AllocateSorted(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []*alloc.Allocation{sorted, sparseAllocation(t, tr, k, rng)} {
			for _, copies := range []bool{false, true} {
				p, err := Compile(a, Options{FillWithRootCopies: copies})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("seed=%d/k=%d/nodes=%d/cycle=%d/copies=%v", seed, k, tr.NumNodes(), p.CycleLen(), copies)
				out = append(out, namedProgram{name, p})
				if seed%10 != 0 {
					continue
				}
				// Logical channel 1 stays on physical channel 1, so the
				// probe still finds the root.
				phys := make([]int, k)
				for i := range phys {
					phys[i] = 1 + 2*i
				}
				q, err := p.Remap(phys, 2*k)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, namedProgram{name + "/remapped", q})
			}
		}
	}
	b := tree.NewBuilder()
	b.AddRootData("X", 2)
	single, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc.FromSequence(single, []tree.ID{single.Root()})
	if err != nil {
		t.Fatal(err)
	}
	for _, copies := range []bool{false, true} {
		p, err := Compile(a, Options{FillWithRootCopies: copies})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedProgram{fmt.Sprintf("single-node/copies=%v", copies), p})
	}
	return out
}

// TestEvaluateMatchesPerQueryOracle: on a perfect or stall-only medium
// the factored Evaluate, EvaluateFaulty and EvaluatePerItem are
// bit-identical to averaging one query per (target, phase).
func TestEvaluateMatchesPerQueryOracle(t *testing.T) {
	progs := differentialPrograms(t)
	if len(progs) < 200 {
		t.Fatalf("only %d programs", len(progs))
	}
	copied := 0
	for i, np := range progs {
		p := np.p
		for ch := 1; ch <= p.Channels(); ch++ {
			for s := 1; s <= p.CycleLen(); s++ {
				if p.BucketAt(ch, s).RootCopy {
					copied++
				}
			}
		}
		want, err := oracleEvaluate(p, testPower, FaultConfig{})
		if err != nil {
			t.Fatalf("%s: oracle: %v", np.name, err)
		}
		got, err := Evaluate(p, testPower)
		if err != nil || got != want {
			t.Fatalf("%s: Evaluate = %+v, %v; oracle %+v", np.name, got, err, want)
		}
		stall := FaultConfig{Model: fault.Model{Seed: int64(i), Stall: 0.4}}
		if !stall.lossless() {
			t.Fatal("stall-only model must take the factored path")
		}
		want, err = oracleEvaluate(p, testPower, stall)
		if err != nil {
			t.Fatalf("%s: stall oracle: %v", np.name, err)
		}
		if got, err = EvaluateFaulty(p, testPower, stall); err != nil || got != want {
			t.Fatalf("%s: stall EvaluateFaulty = %+v, %v; oracle %+v", np.name, got, err, want)
		}
		wantItems, err := oracleEvaluatePerItem(p, testPower)
		if err != nil {
			t.Fatalf("%s: per-item oracle: %v", np.name, err)
		}
		gotItems, err := EvaluatePerItem(p, testPower)
		if err != nil || len(gotItems) != len(wantItems) {
			t.Fatalf("%s: EvaluatePerItem returned %d items, %v; want %d", np.name, len(gotItems), err, len(wantItems))
		}
		for j := range wantItems {
			if gotItems[j] != wantItems[j] {
				t.Fatalf("%s: item %d = %+v, oracle %+v", np.name, j, gotItems[j], wantItems[j])
			}
		}
	}
	if copied == 0 {
		t.Fatal("no program carries a root copy")
	}
	t.Logf("%d programs, %d root copies", len(progs), copied)
}

// TestEvaluateFaultyLossyKeepsPerQueryPath: an environment that can lose
// a read — a model that drops or corrupts, an outage schedule, a station
// downtime — charges each query its own slot outcomes, so it must not
// take the factored path and must still equal the per-query average.
func TestEvaluateFaultyLossyKeepsPerQueryPath(t *testing.T) {
	for _, fc := range []FaultConfig{
		{Model: fault.Model{Seed: 3, Drop: 0.1}},
		{Model: fault.Model{Seed: 4, Corrupt: 0.1}},
		{Model: fault.Model{Seed: 5, Drop: 0.05, Corrupt: 0.05, Stall: 0.1}},
		{Outages: fault.Outages{{Channel: 2, StartSlot: 3, EndSlot: 9}}, DeadAir: DefaultDeadAir},
		{Downtimes: fault.Downtimes{{StartSlot: 4, EndSlot: 7}}, Backoff: fault.Backoff{Seed: 6, Base: 1, Cap: 4}},
	} {
		if fc.lossless() {
			t.Fatalf("%+v: lossy environment takes the factored path", fc)
		}
		for _, opt := range []Options{{}, {FillWithRootCopies: true}} {
			tr := huTuckerTree(t, 12, &stats.Zipf{Theta: 0.8}, 7)
			a, err := heuristic.AllocateSorted(tr, 2)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Compile(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleEvaluate(p, testPower, fc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EvaluateFaulty(p, testPower, fc)
			if err != nil || got != want {
				t.Fatalf("%+v: EvaluateFaulty = %+v, %v; oracle %+v", fc, got, err, want)
			}
			if got.Retries+got.Failovers+got.Reconnects == 0 {
				t.Fatalf("%+v: no recovery charged", fc)
			}
			if lossless, err := Evaluate(p, testPower); err != nil || got.AccessTime <= lossless.AccessTime {
				t.Fatalf("%+v: access time %v does not exceed the lossless %v (%v)", fc, got.AccessTime, lossless.AccessTime, err)
			}
		}
	}
}

// benchPrograms returns the Evaluate benchmark programs: the 4-ary
// depth-3 tree on 3 channels, and a 1,000-key Zipf(0.8) Hu–Tucker tree on
// 3 channels with and without root copies, packed by the sorting
// heuristic. The sparse case spreads the same tree so that about a third
// of channel 1 carries root copies.
func benchPrograms(b testing.TB) []namedProgram {
	b.Helper()
	mary, err := workload.FullMAry(4, 3, stats.Normal{Mu: 100, Sigma: 20}, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	keyed := huTuckerTree(b, 1000, &stats.Zipf{Theta: 0.8}, 1)
	sorted := func(tr *tree.Tree) *alloc.Allocation {
		a, err := heuristic.AllocateSorted(tr, 3)
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	var out []namedProgram
	for _, c := range []struct {
		name   string
		a      *alloc.Allocation
		copies bool
	}{
		{"mary4x3", sorted(mary), false},
		{"hutucker1000", sorted(keyed), false},
		{"hutucker1000+copies", sorted(keyed), true},
		{"hutucker1000-sparse+copies", sparseAllocation(b, keyed, 3, stats.NewRNG(2)), true},
	} {
		p, err := Compile(c.a, Options{FillWithRootCopies: c.copies})
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, namedProgram{c.name, p})
	}
	return out
}

func BenchmarkEvaluate(b *testing.B) {
	for _, np := range benchPrograms(b) {
		b.Run(np.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Evaluate(np.p, testPower); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluateOracle times the per-query loop Evaluate replaces, on
// the same programs.
func BenchmarkEvaluateOracle(b *testing.B) {
	for _, np := range benchPrograms(b) {
		b.Run(np.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := oracleEvaluate(np.p, testPower, FaultConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile times compiling the 3-channel sorting allocation of
// the 1,000-key Zipf(0.8) Hu–Tucker tree into a program.
func BenchmarkCompile(b *testing.B) {
	a, err := heuristic.AllocateSorted(huTuckerTree(b, 1000, &stats.Zipf{Theta: 0.8}, 1), 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(a, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
