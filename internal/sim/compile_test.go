package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/tree"
)

// compileOracle is Compile before the pointer arena: every bucket grows
// its own Children slice by append. The arena build is held to it.
func compileOracle(a *alloc.Allocation, opt Options) *Program {
	t := a.Tree()
	p := &Program{
		t:        t,
		k:        a.Channels(),
		cycleLen: a.NumSlots(),
		slotOf:   make([]alloc.Position, t.NumNodes()),
		span:     keySpans(t),
		rootCh:   1,
	}
	p.buckets = make([][]Bucket, p.k)
	for ch := range p.buckets {
		p.buckets[ch] = make([]Bucket, p.cycleLen)
		for s := range p.buckets[ch] {
			p.buckets[ch][s] = Bucket{Node: tree.None}
		}
	}
	for i := 0; i < t.NumNodes(); i++ {
		id := tree.ID(i)
		pos := a.Pos(id)
		p.slotOf[id] = pos
		b := Bucket{Node: id}
		for _, c := range t.Children(id) {
			cp := a.Pos(c)
			b.Children = append(b.Children, p.pointerTo(cp.Channel, cp.Slot-pos.Slot, c))
		}
		p.buckets[pos.Channel-1][pos.Slot-1] = b
	}
	for ch := range p.buckets {
		for s := 1; s <= p.cycleLen; s++ {
			p.buckets[ch][s-1].NextCycle = p.cycleLen - s + 1
		}
	}
	if opt.FillWithRootCopies && t.NumNodes() > 1 {
		root := t.Root()
		for s := 1; s <= p.cycleLen; s++ {
			if p.buckets[0][s-1].Node != tree.None {
				continue
			}
			b := Bucket{Node: root, RootCopy: true, NextCycle: p.cycleLen - s + 1}
			for _, c := range t.Children(root) {
				cp := a.Pos(c)
				off := cp.Slot - s
				if off <= 0 {
					off += p.cycleLen
				}
				b.Children = append(b.Children, p.pointerTo(cp.Channel, off, c))
			}
			p.buckets[0][s-1] = b
		}
	}
	return p
}

// TestCompileMatchesAppendOracle: on the Evaluate benchmark shapes and
// the differential programs' allocations, with and without root copies,
// Compile's program deep-equals the per-bucket append build, and every
// Children slice and channel row has cap == len.
func TestCompileMatchesAppendOracle(t *testing.T) {
	progs := append(benchPrograms(t), differentialPrograms(t)...)
	for _, np := range progs {
		if strings.HasSuffix(np.name, "/remapped") {
			continue
		}
		a, err := alloc.FromPositions(np.p.t, np.p.k, np.p.slotOf)
		if err != nil {
			t.Fatalf("%s: %v", np.name, err)
		}
		for _, opt := range []Options{{}, {FillWithRootCopies: true}} {
			got, err := Compile(a, opt)
			if err != nil {
				t.Fatalf("%s %+v: %v", np.name, opt, err)
			}
			if want := compileOracle(a, opt); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: Compile differs from the append build", np.name, opt)
			}
			for ch, row := range got.buckets {
				if cap(row) != len(row) {
					t.Fatalf("%s: channel %d row cap %d, len %d", np.name, ch+1, cap(row), len(row))
				}
				for s, b := range row {
					if cap(b.Children) != len(b.Children) {
						t.Fatalf("%s: channel %d slot %d Children cap %d, len %d",
							np.name, ch+1, s+1, cap(b.Children), len(b.Children))
					}
				}
			}
		}
	}
}
