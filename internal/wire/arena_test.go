package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/alphatree"
	"repro/internal/heuristic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

// encodeProgramOracle is EncodeProgram before the arena: one Bucket and
// one Marshal allocation per slot. The arena encoder is held to it byte
// for byte.
func encodeProgramOracle(p *sim.Program, epoch uint32) ([][][]byte, error) {
	t := p.Tree()
	out := make([][][]byte, p.Channels())
	for ch := 1; ch <= p.Channels(); ch++ {
		out[ch-1] = make([][]byte, p.CycleLen())
		for s := 1; s <= p.CycleLen(); s++ {
			sb := p.BucketAt(ch, s)
			wb := &Bucket{
				NextCycle:   uint16(sb.NextCycle),
				RootCopy:    sb.RootCopy || sb.Node == t.Root(),
				Epoch:       epoch,
				RootChannel: uint8(p.RootChannel()),
			}
			if sb.Node == tree.None {
				wb.Kind = KindEmpty
			} else {
				wb.Label = t.Label(sb.Node)
				if t.IsData(sb.Node) {
					wb.Kind = KindData
					wb.Weight = t.Weight(sb.Node)
					if k, ok := t.Key(sb.Node); ok {
						wb.Key = k
					}
				} else {
					wb.Kind = KindIndex
				}
				for _, c := range sb.Children {
					wb.Pointers = append(wb.Pointers, Pointer{
						Channel: uint8(c.Channel), Offset: uint16(c.Offset), KeyLo: c.KeyLo, KeyHi: c.KeyHi,
					})
				}
			}
			data, err := wb.Marshal()
			if err != nil {
				return nil, fmt.Errorf("wire: channel %d slot %d: %w", ch, s, err)
			}
			out[ch-1][s-1] = data
		}
	}
	return out, nil
}

// huTuckerTree builds the keyed Hu–Tucker tree of an n-key catalog.
func huTuckerTree(tb testing.TB, n int, dist stats.Dist, seed int64) *tree.Tree {
	tb.Helper()
	cat := workload.Catalog(n, dist, stats.NewRNG(seed))
	items := make([]alphatree.Item, len(cat))
	for i, it := range cat {
		items[i] = alphatree.Item{Label: it.Label, Key: it.Key, Weight: it.Weight}
	}
	tr, err := alphatree.HuTucker(items)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// sparseAllocation places each node on a random channel at a slot past
// its parent, sometimes skipping a slot, so channel 1 keeps empty slots
// for root copies.
func sparseAllocation(tb testing.TB, tr *tree.Tree, k int, rng *rand.Rand) *alloc.Allocation {
	tb.Helper()
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
		tb.Fatal(err)
	}
	return a
}

type namedProgram struct {
	name string
	p    *sim.Program
}

// programShapes returns the program shapes sim's Evaluate benchmarks
// run: the 4-ary depth-3 tree on 3 channels, and a 1,000-key Zipf(0.8)
// Hu–Tucker tree on 3 channels packed by the sorting heuristic, with and
// without root copies, and spread so that about a third of channel 1
// carries root copies.
func programShapes(tb testing.TB) []namedProgram {
	tb.Helper()
	mary, err := workload.FullMAry(4, 3, stats.Normal{Mu: 100, Sigma: 20}, stats.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	keyed := huTuckerTree(tb, 1000, &stats.Zipf{Theta: 0.8}, 1)
	sorted := func(tr *tree.Tree) *alloc.Allocation {
		a, err := heuristic.AllocateSorted(tr, 3)
		if err != nil {
			tb.Fatal(err)
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
		{"hutucker1000-sparse+copies", sparseAllocation(tb, keyed, 3, stats.NewRNG(2)), true},
	} {
		p, err := sim.Compile(c.a, sim.Options{FillWithRootCopies: c.copies})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, namedProgram{c.name, p})
	}
	return out
}

// TestEncodeProgramMatchesPerBucketMarshal: the arena encoder's packets
// are byte-identical to one Marshal per bucket, and each is a full slice
// expression, so appending to one cannot overwrite the next.
func TestEncodeProgramMatchesPerBucketMarshal(t *testing.T) {
	for _, np := range programShapes(t) {
		t.Run(np.name, func(t *testing.T) {
			got, err := EncodeProgram(np.p, 7)
			if err != nil {
				t.Fatal(err)
			}
			want, err := encodeProgramOracle(np.p, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d channels, oracle %d", len(got), len(want))
			}
			copies := 0
			for ch := range want {
				if len(got[ch]) != len(want[ch]) || cap(got[ch]) != len(got[ch]) {
					t.Fatalf("channel %d: len %d cap %d, oracle len %d", ch+1, len(got[ch]), cap(got[ch]), len(want[ch]))
				}
				for s := range want[ch] {
					packet := got[ch][s]
					if !bytes.Equal(packet, want[ch][s]) {
						t.Fatalf("channel %d slot %d: %x, oracle %x", ch+1, s+1, packet, want[ch][s])
					}
					if cap(packet) != len(packet) {
						t.Fatalf("channel %d slot %d: cap %d, len %d", ch+1, s+1, cap(packet), len(packet))
					}
					if np.p.BucketAt(ch+1, s+1).RootCopy {
						copies++
					}
				}
			}
			// Appending to a packet leaves its neighbour intact.
			next := append([]byte(nil), got[0][1]...)
			if grown := append(got[0][0], 0xFF); grown[len(grown)-1] != 0xFF || !bytes.Equal(got[0][1], next) {
				t.Fatal("append to packet 1 overwrote packet 2")
			}
			if strings.HasSuffix(np.name, "+copies") && copies == 0 {
				t.Fatal("no root copies on air")
			}
		})
	}
}

// BenchmarkEncodeProgram times encoding the 3-channel sorting program of
// the 1,000-key Zipf(0.8) Hu–Tucker tree, what each replan stages.
func BenchmarkEncodeProgram(b *testing.B) {
	a, err := heuristic.AllocateSorted(huTuckerTree(b, 1000, &stats.Zipf{Theta: 0.8}, 1), 3)
	if err != nil {
		b.Fatal(err)
	}
	p, err := sim.Compile(a, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeProgram(p, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}
