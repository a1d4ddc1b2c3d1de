package sim

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/tree"
)

// These tests inject faults into compiled programs and assert the client
// fails loudly instead of looping or returning wrong data — the simulator
// is also the reference implementation of the client protocol, so its
// error paths matter.

func corruptedProgram(t *testing.T) *Program {
	t.Helper()
	res, err := topo.Exact(tree.Fig1(), 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(res.Alloc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestQueryDetectsDanglingPointer(t *testing.T) {
	p := corruptedProgram(t)
	tr := p.Tree()
	// Find the root bucket and corrupt its first child pointer's offset
	// so it lands on the wrong bucket.
	root := tr.Root()
	pos := p.slotOf[root]
	b := &p.buckets[pos.Channel-1][pos.Slot-1]
	if len(b.Children) == 0 {
		t.Fatal("root has no children")
	}
	b.Children[0].Offset += 2

	target := b.Children[0].Target
	// Descend toward the corrupted child (or any data below it).
	var data tree.ID = target
	for !tr.IsData(data) {
		data = tr.Children(data)[0]
	}
	_, err := p.Query(0, data, Power{Active: 1})
	if err == nil {
		t.Fatal("corrupted pointer went undetected")
	}
	if !errors.Is(err, ErrBrokenPointer) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestQueryDetectsMissingRootAtCycleStart(t *testing.T) {
	p := corruptedProgram(t)
	// Swap the root bucket out of slot 1.
	p.buckets[0][0] = Bucket{Node: tree.None, NextCycle: p.cycleLen}
	target := p.Tree().DataIDs()[0]
	// Arrive mid-cycle so the client synchronizes to the (now broken)
	// cycle start.
	_, err := p.Query(1, target, Power{Active: 1})
	if err == nil {
		t.Fatal("missing root went undetected")
	}
	if !errors.Is(err, ErrMissingRoot) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestQueryDetectsPointerToWrongNode(t *testing.T) {
	p := corruptedProgram(t)
	tr := p.Tree()
	root := tr.Root()
	pos := p.slotOf[root]
	b := &p.buckets[pos.Channel-1][pos.Slot-1]
	// Retarget the first pointer at a node that is not there.
	orig := b.Children[0].Target
	b.Children[0].Target = b.Children[1].Target
	b.Children[1].Target = orig

	var data tree.ID = orig
	for !tr.IsData(data) {
		data = tr.Children(data)[0]
	}
	if _, err := p.Query(0, data, Power{Active: 1}); err == nil {
		t.Fatal("swapped pointers went undetected")
	}
}

// missingPointerProgram is corruptedProgram with the root's first
// pointer (toward index node 2, the parent of A and B) removed.
func missingPointerProgram(t *testing.T) *Program {
	t.Helper()
	p := corruptedProgram(t)
	pos := p.slotOf[p.Tree().Root()]
	b := &p.buckets[pos.Channel-1][pos.Slot-1]
	if got := p.Tree().Label(b.Children[0].Target); got != "2" {
		t.Fatalf("root's first pointer targets %s, want 2", got)
	}
	b.Children = b.Children[1:]
	return p
}

// TestQueryDetectsMissingPointer: a descent that ends at a bucket without
// the pointer toward the target must fail, not report that bucket as the
// data.
func TestQueryDetectsMissingPointer(t *testing.T) {
	p := missingPointerProgram(t)
	tr := p.Tree()
	for _, label := range []string{"A", "B"} {
		for a := 0; a < p.CycleLen(); a++ {
			if m, err := p.Query(a, tr.FindLabel(label), testPower); !errors.Is(err, ErrBrokenPointer) {
				t.Fatalf("Query(%d, %s) = %+v, %v; want ErrBrokenPointer", a, label, m, err)
			}
		}
	}
	// The other subtree is untouched.
	if _, err := p.Query(0, tr.FindLabel("D"), testPower); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateDetectsMissingPointer(t *testing.T) {
	assertEvaluateFails(t, missingPointerProgram(t), ErrBrokenPointer)
}

func TestRangeQueryDetectsEmptyBucket(t *testing.T) {
	b := tree.NewBuilder()
	r := b.AddRoot("r")
	b.AddKeyedData(r, "a", 1, 2)
	b.AddKeyedData(r, "b", 2, 1)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := topo.Exact(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(res.Alloc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Blank out a data bucket the range scan will chase.
	pos := p.slotOf[tr.FindLabel("a")]
	p.buckets[pos.Channel-1][pos.Slot-1] = Bucket{Node: tree.None}
	if _, err := p.QueryRange(0, 1, 2, Power{Active: 1}); err == nil {
		t.Fatal("empty bucket went undetected by range scan")
	}
}

// assertEvaluateFails checks that Evaluate and EvaluatePerItem fail on p
// with the sentinel, as the per-query oracle does.
func assertEvaluateFails(t *testing.T, p *Program, sentinel error) {
	t.Helper()
	_, want := oracleEvaluate(p, testPower, FaultConfig{})
	if !errors.Is(want, sentinel) {
		t.Fatalf("oracle error %v, want %v", want, sentinel)
	}
	if _, err := Evaluate(p, testPower); !errors.Is(err, sentinel) {
		t.Fatalf("Evaluate error %v, oracle %v", err, want)
	}
	_, want = oracleEvaluatePerItem(p, testPower)
	if !errors.Is(want, sentinel) {
		t.Fatalf("per-item oracle error %v, want %v", want, sentinel)
	}
	if _, err := EvaluatePerItem(p, testPower); !errors.Is(err, sentinel) {
		t.Fatalf("EvaluatePerItem error %v, oracle %v", err, want)
	}
}

func TestEvaluateDetectsDanglingPointer(t *testing.T) {
	t.Run("root", func(t *testing.T) {
		p := corruptedProgram(t)
		pos := p.slotOf[p.Tree().Root()]
		p.buckets[pos.Channel-1][pos.Slot-1].Children[0].Offset += 2
		assertEvaluateFails(t, p, ErrBrokenPointer)
	})
	t.Run("below the first hop", func(t *testing.T) {
		p := corruptedProgram(t)
		tr := p.Tree()
		deep := tree.None
		for _, c := range tr.Children(tr.Root()) {
			if tr.IsIndex(c) {
				deep = c
			}
		}
		if deep == tree.None {
			t.Fatal("root has no index child")
		}
		pos := p.slotOf[deep]
		p.buckets[pos.Channel-1][pos.Slot-1].Children[0].Offset++
		assertEvaluateFails(t, p, ErrBrokenPointer)
	})
}

func TestEvaluateDetectsMissingRootAtCycleStart(t *testing.T) {
	p := corruptedProgram(t)
	p.buckets[0][0] = Bucket{Node: tree.None, NextCycle: p.cycleLen}
	assertEvaluateFails(t, p, ErrMissingRoot)
}

func TestEvaluateDetectsPointerToWrongNode(t *testing.T) {
	p := corruptedProgram(t)
	pos := p.slotOf[p.Tree().Root()]
	b := &p.buckets[pos.Channel-1][pos.Slot-1]
	b.Children[0].Target, b.Children[1].Target = b.Children[1].Target, b.Children[0].Target
	assertEvaluateFails(t, p, ErrBrokenPointer)
}

// rootCopyProgram compiles a sparse allocation of the example tree with
// root copies and returns it with the channel-1 slot of its last copy.
func rootCopyProgram(t *testing.T) (*Program, int) {
	t.Helper()
	a := sparseAllocation(t, tree.Fig1(), 2, stats.NewRNG(1))
	p, err := Compile(a, Options{FillWithRootCopies: true})
	if err != nil {
		t.Fatal(err)
	}
	for s := p.cycleLen; s > 1; s-- {
		if p.buckets[0][s-1].RootCopy {
			return p, s
		}
	}
	t.Fatal("program has no root copy")
	return nil, 0
}

func TestEvaluateDetectsBrokenRootCopy(t *testing.T) {
	p, s := rootCopyProgram(t)
	// Only arrivals that start from this copy follow the broken pointer.
	p.buckets[0][s-1].Children[0].Offset++
	assertEvaluateFails(t, p, ErrBrokenPointer)
}

// TestEvaluateRootCopyMissingPointer: a root copy without a pointer to
// one child strands the queries below that child that start from the
// copy. The per-query protocol fails them with ErrBrokenPointer instead of
// charging the copy as their data, and so must Evaluate.
func TestEvaluateRootCopyMissingPointer(t *testing.T) {
	p, s := rootCopyProgram(t)
	b := &p.buckets[0][s-1]
	b.Children = b.Children[1:]
	assertEvaluateFails(t, p, ErrBrokenPointer)
}

// TestEvaluateDetectsRemappedRootChannel: a program remapped off channel
// 1 airs only filler there, so the client must find the root on the
// remapped root channel. Evaluate and EvaluatePerItem then agree with the
// oracle and with the unremapped program, with and without root copies.
func TestEvaluateDetectsRemappedRootChannel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, copies := range []bool{false, true} {
			a := sparseAllocation(t, tree.Fig1(), 2, stats.NewRNG(seed))
			p, err := Compile(a, Options{FillWithRootCopies: copies})
			if err != nil {
				t.Fatal(err)
			}
			q, err := p.Remap([]int{2, 3}, 3)
			if err != nil {
				t.Fatal(err)
			}
			if q.RootChannel() == 1 {
				t.Fatal("remapped root channel is 1")
			}
			want, err := Evaluate(p, testPower)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := oracleEvaluate(q, testPower, FaultConfig{})
			if err != nil || oracle != want {
				t.Fatalf("seed %d copies %v: remapped oracle = %+v, %v; unremapped %+v", seed, copies, oracle, err, want)
			}
			if got, err := Evaluate(q, testPower); err != nil || got != want {
				t.Fatalf("seed %d copies %v: remapped Evaluate = %+v, %v; unremapped %+v", seed, copies, got, err, want)
			}
			wantItems, err := EvaluatePerItem(p, testPower)
			if err != nil {
				t.Fatal(err)
			}
			gotItems, err := EvaluatePerItem(q, testPower)
			if err != nil || !slices.Equal(gotItems, wantItems) {
				t.Fatalf("seed %d copies %v: remapped EvaluatePerItem = %+v, %v; unremapped %+v", seed, copies, gotItems, err, wantItems)
			}
		}
	}
}

// TestEvaluateReplicatedChildBucket: one root copy points at a second
// airing of a root child, placed in another slot of the same channel. Its
// queries descend through that airing, the others through the primary
// one, and Evaluate must charge each path what the protocol charges.
func TestEvaluateReplicatedChildBucket(t *testing.T) {
	p, s := rootCopyProgram(t)
	copyBucket := &p.buckets[0][s-1]
	ptr := &copyBucket.Children[0]
	x := (s-1+ptr.Offset)%p.cycleLen + 1
	orig := p.buckets[ptr.Channel-1][x-1]
	y := 0
	for slot := 1; slot <= p.cycleLen; slot++ {
		b := p.buckets[ptr.Channel-1][slot-1]
		if slot != x && slot != s && (b.Node == tree.None || b.RootCopy) {
			y = slot
		}
	}
	if y == 0 {
		t.Fatal("no free slot for the second airing")
	}
	wrap := func(off int) int {
		if off <= 0 {
			off += p.cycleLen
		}
		return off
	}
	dup := Bucket{Node: orig.Node, NextCycle: p.cycleLen - y + 1}
	for _, c := range orig.Children {
		c.Offset = wrap(x + c.Offset - y)
		dup.Children = append(dup.Children, c)
	}
	p.buckets[ptr.Channel-1][y-1] = dup
	ptr.Offset = wrap(y - s)

	want, err := oracleEvaluate(p, testPower, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Evaluate(p, testPower); err != nil || got != want {
		t.Fatalf("Evaluate = %+v, %v; oracle %+v", got, err, want)
	}
	wantItems, err := oracleEvaluatePerItem(p, testPower)
	if err != nil {
		t.Fatal(err)
	}
	gotItems, err := EvaluatePerItem(p, testPower)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantItems {
		if gotItems[i] != wantItems[i] {
			t.Fatalf("item %d = %+v, oracle %+v", i, gotItems[i], wantItems[i])
		}
	}
}
