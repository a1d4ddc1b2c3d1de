package tree

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFig1Structure(t *testing.T) {
	tr := Fig1()
	if got := tr.NumNodes(); got != 9 {
		t.Fatalf("NumNodes = %d, want 9", got)
	}
	if got := tr.NumData(); got != 5 {
		t.Fatalf("NumData = %d, want 5", got)
	}
	if got := tr.NumIndex(); got != 4 {
		t.Fatalf("NumIndex = %d, want 4", got)
	}
	if got := tr.Depth(); got != 4 {
		t.Fatalf("Depth = %d, want 4", got)
	}
	if got := tr.TotalWeight(); got != 70 {
		t.Fatalf("TotalWeight = %g, want 70", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFig1PreorderIndexWeights(t *testing.T) {
	tr := Fig1()
	// The paper numbers index nodes 1..4 in preorder; our labels happen to
	// match that numbering, so Weight(index labelled k) == k.
	for _, label := range []string{"1", "2", "3", "4"} {
		id := tr.FindLabel(label)
		if id == None {
			t.Fatalf("label %q not found", label)
		}
		want := float64(label[0] - '0')
		if got := tr.Weight(id); got != want {
			t.Errorf("Weight(%s) = %g, want %g", label, got, want)
		}
	}
}

func TestFig1Levels(t *testing.T) {
	tr := Fig1()
	wantLevel := map[string]int{
		"1": 1, "2": 2, "3": 2, "A": 3, "B": 3, "E": 3, "4": 3, "C": 4, "D": 4,
	}
	for label, want := range wantLevel {
		if got := tr.Level(tr.FindLabel(label)); got != want {
			t.Errorf("Level(%s) = %d, want %d", label, got, want)
		}
	}
	if got := tr.MaxLevelWidth(); got != 4 {
		t.Errorf("MaxLevelWidth = %d, want 4 (level 3 has A,B,E,4)", got)
	}
}

func TestFig1Ancestors(t *testing.T) {
	tr := Fig1()
	d := tr.FindLabel("D")
	anc := tr.Ancestors(d)
	got := tr.LabelOf(anc)
	want := []string{"1", "3", "4"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Ancestors(D) = %v, want %v", got, want)
	}
	set := tr.AncestorSet(d)
	if set.Len() != 3 {
		t.Fatalf("AncestorSet(D).Len = %d, want 3", set.Len())
	}
	if !tr.IsAncestor(tr.FindLabel("1"), d) {
		t.Error("1 should be ancestor of D")
	}
	if tr.IsAncestor(d, tr.FindLabel("1")) {
		t.Error("D should not be ancestor of 1")
	}
	if tr.IsAncestor(tr.FindLabel("2"), d) {
		t.Error("2 should not be ancestor of D")
	}
}

func TestFig1SubtreeAggregates(t *testing.T) {
	tr := Fig1()
	if got := tr.SubtreeWeight(tr.FindLabel("3")); got != 40 {
		t.Errorf("SubtreeWeight(3) = %g, want 40 (E+C+D)", got)
	}
	if got := tr.SubtreeSize(tr.FindLabel("3")); got != 5 {
		t.Errorf("SubtreeSize(3) = %d, want 5", got)
	}
	if got := tr.SubtreeWeight(tr.Root()); got != 70 {
		t.Errorf("SubtreeWeight(root) = %g, want 70", got)
	}
}

func TestFig1PreorderSequence(t *testing.T) {
	tr := Fig1()
	got := tr.LabelOf(tr.Preorder())
	want := "1 2 A B 3 E 4 C D"
	if strings.Join(got, " ") != want {
		t.Fatalf("Preorder = %v, want %s", got, want)
	}
	for i, id := range tr.Preorder() {
		if tr.PreorderPos(id) != i {
			t.Fatalf("PreorderPos(%s) = %d, want %d", tr.Label(id), tr.PreorderPos(id), i)
		}
	}
}

func TestSortedDataByWeight(t *testing.T) {
	tr := Fig1()
	got := tr.LabelOf(tr.SortedDataByWeight())
	want := "A E C B D"
	if strings.Join(got, " ") != want {
		t.Fatalf("SortedDataByWeight = %v, want %s", got, want)
	}
}

func TestSingleDataNodeTree(t *testing.T) {
	b := NewBuilder()
	b.AddRootData("X", 5)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 || tr.NumData() != 1 || tr.Depth() != 1 {
		t.Fatalf("unexpected shape: nodes=%d data=%d depth=%d",
			tr.NumNodes(), tr.NumData(), tr.Depth())
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("no root", func(t *testing.T) {
		if _, err := NewBuilder().Build(); err == nil {
			t.Fatal("want error for empty builder")
		}
	})
	t.Run("double root", func(t *testing.T) {
		b := NewBuilder()
		b.AddRoot("r")
		b.AddRoot("r2")
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for double root")
		}
	})
	t.Run("child of data node", func(t *testing.T) {
		b := NewBuilder()
		r := b.AddRoot("r")
		d := b.AddData(r, "d", 1)
		b.AddData(d, "x", 1)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for child under data node")
		}
	})
	t.Run("index leaf", func(t *testing.T) {
		b := NewBuilder()
		r := b.AddRoot("r")
		b.AddIndex(r, "i")
		b.AddData(r, "d", 1)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for childless index node")
		}
	})
	t.Run("negative weight", func(t *testing.T) {
		b := NewBuilder()
		r := b.AddRoot("r")
		b.AddData(r, "d", -1)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for negative weight")
		}
	})
	t.Run("NaN weight", func(t *testing.T) {
		b := NewBuilder()
		r := b.AddRoot("r")
		b.AddData(r, "d", math.NaN())
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for NaN weight")
		}
	})
	t.Run("build twice", func(t *testing.T) {
		b := NewBuilder()
		r := b.AddRoot("r")
		b.AddData(r, "d", 1)
		if _, err := b.Build(); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for second Build")
		}
	})
	t.Run("bad parent ID", func(t *testing.T) {
		b := NewBuilder()
		b.AddRoot("r")
		b.AddData(42, "d", 1)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for unknown parent")
		}
	})
}

func TestJSONRoundTrip(t *testing.T) {
	tr := Fig1()
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(tr, back) {
		t.Fatalf("round trip mismatch:\n%s\n%s", tr, back)
	}
}

func TestParseJSONErrors(t *testing.T) {
	if _, err := ParseJSON([]byte("{not json")); err == nil {
		t.Fatal("want parse error")
	}
	// Structurally invalid: an index node cannot be synthesized with a
	// data child that itself fails validation (negative weight).
	if _, err := ParseJSON([]byte(`{"label":"r","children":[{"label":"d","weight":-3}]}`)); err == nil {
		t.Fatal("want validation error")
	}
}

func TestKeyedTree(t *testing.T) {
	b := NewBuilder()
	r := b.AddRoot("r")
	l := b.AddIndex(r, "l")
	b.AddKeyedData(l, "a", 10, 1)
	b.AddKeyedData(l, "b", 20, 2)
	rr := b.AddIndex(r, "r2")
	b.AddKeyedData(rr, "c", 30, 3)
	b.AddKeyedData(rr, "d", 40, 4)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Keyed() {
		t.Fatal("tree should be keyed")
	}
	lo, hi, ok := tr.KeyRange(tr.FindLabel("l"))
	if !ok || lo != 10 || hi != 20 {
		t.Fatalf("KeyRange(l) = [%d,%d] ok=%v, want [10,20]", lo, hi, ok)
	}
	lo, hi, ok = tr.KeyRange(tr.Root())
	if !ok || lo != 10 || hi != 40 {
		t.Fatalf("KeyRange(root) = [%d,%d] ok=%v, want [10,40]", lo, hi, ok)
	}
	k, ok := tr.Key(tr.FindLabel("c"))
	if !ok || k != 30 {
		t.Fatalf("Key(c) = %d ok=%v, want 30", k, ok)
	}
}

func TestKeyedTreeRejectsUnorderedRanges(t *testing.T) {
	b := NewBuilder()
	r := b.AddRoot("r")
	b.AddKeyedData(r, "hi", 50, 1)
	b.AddKeyedData(r, "lo", 10, 1) // out of order: 50 before 10
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for unordered key ranges")
	}
}

func TestUnkeyedTreeKeyRange(t *testing.T) {
	tr := Fig1()
	if _, _, ok := tr.KeyRange(tr.Root()); ok {
		t.Fatal("unkeyed tree should report no key range")
	}
	if _, ok := tr.Key(tr.FindLabel("A")); ok {
		t.Fatal("unkeyed data node should report no key")
	}
}

func TestDOTOutput(t *testing.T) {
	dot := Fig1().DOT()
	for _, frag := range []string{"digraph", "shape=box", "W=20", "->"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q", frag)
		}
	}
}

func TestStringCompact(t *testing.T) {
	got := Fig1().String()
	want := "1(2(A:20 B:10) 3(E:18 4(C:15 D:7)))"
	if got != want {
		t.Fatalf("String = %s, want %s", got, want)
	}
}

func TestEqual(t *testing.T) {
	a, b := Fig1(), Fig1()
	if !Equal(a, b) {
		t.Fatal("identical trees should be Equal")
	}
	spec := a.ToSpec()
	spec.Children[0].Children[0].Weight = 21
	c, err := FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if Equal(a, c) {
		t.Fatal("trees with different weights should differ")
	}
}

// randomSpec builds a random valid tree spec for property testing.
func randomSpec(rng *rand.Rand, depth int) Spec {
	if depth == 0 || rng.Intn(3) == 0 {
		return Spec{Label: "d", Weight: float64(rng.Intn(100))}
	}
	n := 1 + rng.Intn(3)
	s := Spec{Label: "i"}
	for i := 0; i < n; i++ {
		s.Children = append(s.Children, randomSpec(rng, depth-1))
	}
	return s
}

// Property: every random tree validates, round-trips through JSON, and has
// consistent aggregates (preorder covers all nodes, data count matches
// leaves, subtree weight of root equals total weight).
func TestQuickRandomTreeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := FromSpec(randomSpec(rng, 4))
		if err != nil {
			return false
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		if len(tr.Preorder()) != tr.NumNodes() {
			return false
		}
		if tr.SubtreeWeight(tr.Root()) != tr.TotalWeight() {
			return false
		}
		data, err := json.Marshal(tr)
		if err != nil {
			return false
		}
		back, err := ParseJSON(data)
		if err != nil {
			return false
		}
		if !Equal(tr, back) {
			return false
		}
		// Index preorder weights are 1..NumIndex, each used once.
		seen := map[float64]bool{}
		for _, id := range tr.IndexIDs() {
			w := tr.Weight(id)
			if w < 1 || w > float64(tr.NumIndex()) || seen[w] {
				return false
			}
			seen[w] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	tr := Fig1()
	defer func() {
		if recover() == nil {
			t.Fatal("Kind(99) should panic")
		}
	}()
	tr.Kind(99)
}

// TestOutOfRangePanicMessage: negative IDs fail the unsigned range check
// too, and every accessor panics with the ID and the valid range.
func TestOutOfRangePanicMessage(t *testing.T) {
	tr := Fig1()
	for _, c := range []struct {
		name string
		call func()
		want string
	}{
		{"Parent(-1)", func() { tr.Parent(-1) }, "tree: ID -1 out of range [0,9)"},
		{"Weight(9)", func() { tr.Weight(9) }, "tree: ID 9 out of range [0,9)"},
		{"IsData(-5)", func() { tr.IsData(-5) }, "tree: ID -5 out of range [0,9)"},
		{"Level(100)", func() { tr.Level(100) }, "tree: ID 100 out of range [0,9)"},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("%s panicked with %v, want %q", c.name, got, c.want)
				}
			}()
			c.call()
		}()
	}
}

func BenchmarkBuildFig1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Fig1()
	}
}

func TestKindString(t *testing.T) {
	if Index.String() != "index" || Data.String() != "data" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown Kind should still render")
	}
}

func TestLevelNodes(t *testing.T) {
	tr := Fig1()
	got := tr.LabelOf(tr.LevelNodes(3))
	want := "A B E 4"
	if strings.Join(got, " ") != want {
		t.Fatalf("LevelNodes(3) = %v, want %s", got, want)
	}
	if len(tr.LevelNodes(99)) != 0 {
		t.Fatal("LevelNodes(99) should be empty")
	}
}

func TestSubtreeExtraction(t *testing.T) {
	tr := Fig1()
	sub, mapping, err := Subtree(tr, tr.FindLabel("3"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 5 || sub.NumData() != 3 {
		t.Fatalf("subtree shape: nodes=%d data=%d", sub.NumNodes(), sub.NumData())
	}
	if got := sub.String(); got != "3(E:18 4(C:15 D:7))" {
		t.Fatalf("subtree = %s", got)
	}
	// The mapping points each new node at its original.
	for newID, origID := range mapping {
		if sub.Label(ID(newID)) != tr.Label(origID) {
			t.Fatalf("mapping broken at %d", newID)
		}
	}
	// Extracting a single data node yields a one-node tree.
	leaf, _, err := Subtree(tr, tr.FindLabel("A"))
	if err != nil {
		t.Fatal(err)
	}
	if leaf.NumNodes() != 1 || leaf.Weight(leaf.Root()) != 20 {
		t.Fatalf("leaf subtree: %s", leaf)
	}
}

func TestSubtreeKeyedPreservesKeys(t *testing.T) {
	b := NewBuilder()
	r := b.AddRoot("r")
	l := b.AddIndex(r, "l")
	b.AddKeyedData(l, "a", 1, 2)
	b.AddKeyedData(l, "b", 5, 3)
	b.AddKeyedData(r, "c", 9, 4)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := Subtree(tr, tr.FindLabel("l"))
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Keyed() {
		t.Fatal("keys lost in extraction")
	}
	if k, _ := sub.Key(sub.FindLabel("b")); k != 5 {
		t.Fatalf("key = %d", k)
	}
	// Keyed single-node extraction keeps the key too.
	one, _, err := Subtree(tr, tr.FindLabel("c"))
	if err != nil {
		t.Fatal(err)
	}
	if k, ok := one.Key(one.Root()); !ok || k != 9 {
		t.Fatalf("root key = %d ok=%v", k, ok)
	}
}

func TestAddRootKeyedData(t *testing.T) {
	b := NewBuilder()
	b.AddRootKeyedData("solo", 77, 3)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Keyed() {
		t.Fatal("single keyed root not keyed")
	}
	if k, ok := tr.Key(tr.Root()); !ok || k != 77 {
		t.Fatalf("key = %d ok=%v", k, ok)
	}
	// Calling it twice fails at Build.
	b2 := NewBuilder()
	b2.AddRootKeyedData("x", 1, 1)
	b2.AddRootKeyedData("y", 2, 1)
	if _, err := b2.Build(); err == nil {
		t.Fatal("want error for double keyed root")
	}
}

func TestEqualMismatches(t *testing.T) {
	a := Fig1()
	// Different node count.
	b := NewBuilder()
	b.AddRootData("X", 1)
	single, _ := b.Build()
	if Equal(a, single) {
		t.Fatal("trees of different size Equal")
	}
	// Same shape, different label.
	spec := a.ToSpec()
	spec.Children[0].Label = "zz"
	c, err := FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if Equal(a, c) {
		t.Fatal("different labels Equal")
	}
	// Keyed vs unkeyed leaf.
	spec2 := a.ToSpec()
	k := int64(3)
	spec2.Children[0].Children[0].Key = &k
	d, err := FromSpec(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if Equal(a, d) {
		t.Fatal("keyed vs unkeyed Equal")
	}
}
