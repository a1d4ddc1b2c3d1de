package tree

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
)

// TestReleaseBoundFig1 works both relaxations by hand on Fig. 1 (IDs in
// insertion order: 1=0, 2=1, A=2, B=3, 3=4, E=5, 4=6, C=7, D=8; weights
// A 20, E 18, C 15, B 10, D 7; the largest fanout is 2).
//
// Release time: with the root placed after slot 1, A, B and E wait for
// one ancestor and C and D for two, so at k = 1 the weight-order schedule
// airs A at 3, E at 4, C at 5, B at 6 and D at 7 (316); at k = 2, A and E
// share slot 3, C and B slot 4, and D takes slot 5 (249).
//
// Index capacity: with the root placed, no data node has its parent
// placed (F = 0) and 2 and 3 are the forest's roots (c = 2), so the j-th
// data node needs the least I with I + min(2, I) ≥ j unplaced ancestors
// beside it: I = 1, 1, 2, 2, 3 for j = 1..5. At k = 1 it airs no earlier
// than 1 + j + I: slots 3, 4, 6, 7 and 9, so A 20·3 + E 18·4 + C 15·6 +
// B 10·7 + D 7·9 = 355, above the release-time 316. At k = 2 the slots
// are 1 + ⌈(j + I)/2⌉ = 2, 3, 4, 4, 5, giving 229, below 249.
func TestReleaseBoundFig1(t *testing.T) {
	tr := Fig1()
	r := NewReleaseBound(tr, tr.SortedDataByWeight())
	set := func(ids ...int) bitset.Set {
		s := bitset.New(tr.NumNodes())
		for _, id := range ids {
			s.Add(id)
		}
		return s
	}
	root := set(0)
	for _, c := range []struct {
		name       string
		done, have bitset.Set
		start, k   int
		want       float64
	}{
		{"root k=1", root, root, 1, 1, 20*3 + 18*4 + 15*6 + 10*7 + 7*9},
		{"root k=2", root, root, 1, 2, 20*3 + 18*3 + 15*4 + 10*4 + 7*5},
		// The data tree's root state: nothing covered at position 0, so
		// every release moves one later and the release-time schedule is
		// the same (316). The root is now the capacity forest's one root
		// (c = 1): I = 1, 1, 2, 3, 4 for j = 1..5 puts the data at 2, 3,
		// 5, 7 and 9, only 302.
		{"nothing placed k=1", set(), set(), 0, 1, 20*3 + 18*4 + 15*5 + 10*6 + 7*7},
		// After 1, 2, A in slots 1–3. Release time: B is released at once
		// (slot 4), E waits for 3 (slot 5), C for 3 and 4 (slot 6), and D
		// for slot 7 (269). Index capacity: B's parent is placed (F = 1)
		// and 3 is the one root (c = 1), so I = 0, 1, 1, 2 for E, C, B, D
		// at j = 1..4, and the slots are 3 + j + I = 4, 6, 7 and 9 (295).
		{"after A k=1", set(0, 1, 2), set(0, 1, 2), 3, 1, 18*4 + 15*6 + 10*7 + 7*9},
		{"all placed", set(0, 1, 2, 3, 4, 5, 6, 7, 8), set(0, 1, 2, 3, 4, 5, 6, 7, 8), 6, 2, 0},
	} {
		// Twice each: the scratch buffers must come back clean.
		for i := 0; i < 2; i++ {
			if got := r.Cost(c.done, c.have, c.start, c.k); got != c.want {
				t.Errorf("%s: Cost = %v, want %v", c.name, got, c.want)
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { r.Cost(root, root, 1, 2) }); n != 0 {
		t.Errorf("Cost allocates %v times", n)
	}
}

// BenchmarkReleaseBound times one Cost call on a full 4-ary tree of depth
// 3 (16 data nodes) with two of its four index subtrees opened and three
// data nodes placed, at k = 1 and k = 3.
func BenchmarkReleaseBound(b *testing.B) {
	bld := NewBuilder()
	root := bld.AddRoot("r")
	for i := 0; i < 4; i++ {
		ix := bld.AddIndex(root, "i")
		for j := 0; j < 4; j++ {
			bld.AddData(ix, "d", float64(1+(7*i+3*j)%16))
		}
	}
	tr, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	r := NewReleaseBound(tr, tr.SortedDataByWeight())
	have := bitset.New(tr.NumNodes())
	for _, id := range []int{0, 1, 2, 3, 6, 7} { // root, two index nodes, three data
		have.Add(id)
	}
	for _, k := range []int{1, 3} {
		b.Run(fmt.Sprint("k=", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = r.Cost(have, have, 4, k)
			}
		})
	}
}

var sink float64
