package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptySet(t *testing.T) {
	var s Set
	if !s.Empty() {
		t.Fatal("zero-value set should be empty")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if s.Contains(0) || s.Contains(100) {
		t.Fatal("empty set should contain nothing")
	}
	if got := s.String(); got != "{}" {
		t.Fatalf("String = %q, want {}", got)
	}
}

func TestAddRemoveContains(t *testing.T) {
	var s Set
	s.Add(3)
	s.Add(64) // crosses word boundary
	s.Add(129)
	for _, v := range []int{3, 64, 129} {
		if !s.Contains(v) {
			t.Errorf("Contains(%d) = false after Add", v)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) after Remove")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	// Negative values and values past the last word are never members,
	// even -61, whose bit within a word (-61 mod 64 = 3) is a member's.
	for _, v := range []int{-1, -61, -64, -128, 1 << 20} {
		if s.Contains(v) {
			t.Errorf("Contains(%d) = true", v)
		}
	}
	// Removing an absent or negative value is a no-op.
	s.Remove(1000)
	s.Remove(-1)
	if s.Len() != 2 {
		t.Fatalf("Len = %d after no-op removes, want 2", s.Len())
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) should panic")
		}
	}()
	var s Set
	s.Add(-1)
}

func TestValuesSorted(t *testing.T) {
	s := FromSlice([]int{5, 1, 99, 64, 63, 0})
	got := s.Values()
	want := []int{0, 1, 5, 63, 64, 99}
	if len(got) != len(want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromSlice([]int{1, 2, 3, 70})
	b := FromSlice([]int{3, 4, 70, 200})

	if got := a.Union(b).Values(); !equalInts(got, []int{1, 2, 3, 4, 70, 200}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b).Values(); !equalInts(got, []int{3, 70}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b).Values(); !equalInts(got, []int{1, 2}) {
		t.Errorf("Diff = %v", got)
	}
	if got := b.Diff(a).Values(); !equalInts(got, []int{4, 200}) {
		t.Errorf("Diff = %v", got)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false, want true")
	}
	if a.Intersects(FromSlice([]int{9, 300})) {
		t.Error("Intersects = true for disjoint sets")
	}
}

func TestEqualAcrossCapacities(t *testing.T) {
	a := New(1000)
	a.Add(5)
	b := FromSlice([]int{5})
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("sets with equal contents but different capacity should be Equal")
	}
	if a.Key() != b.Key() {
		t.Errorf("Key mismatch: %q vs %q", a.Key(), b.Key())
	}
	b.Add(999)
	if a.Equal(b) {
		t.Error("unequal sets reported Equal")
	}
}

func TestSubsetOf(t *testing.T) {
	a := FromSlice([]int{1, 2})
	b := FromSlice([]int{1, 2, 3})
	if !a.SubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	var empty Set
	if !empty.SubsetOf(a) || !empty.SubsetOf(empty) {
		t.Error("empty set is a subset of everything")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]int{1, 2})
	c := a.Clone()
	c.Add(3)
	if a.Contains(3) {
		t.Error("mutating clone affected original")
	}
	a.Remove(1)
	if !c.Contains(1) {
		t.Error("mutating original affected clone")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]int{1, 2})
	a.AddSet(FromSlice([]int{2, 3, 130}))
	if !equalInts(a.Values(), []int{1, 2, 3, 130}) {
		t.Fatalf("AddSet: %v", a.Values())
	}
	a.RemoveSet(FromSlice([]int{2, 130, 500}))
	if !equalInts(a.Values(), []int{1, 3}) {
		t.Fatalf("RemoveSet: %v", a.Values())
	}
}

func TestForEachOrder(t *testing.T) {
	s := FromSlice([]int{63, 64, 65, 0, 127, 128})
	var got []int
	s.ForEach(func(v int) { got = append(got, v) })
	if !sort.IntsAreSorted(got) {
		t.Fatalf("ForEach not in ascending order: %v", got)
	}
}

// Property: a Set behaves exactly like a map[int]bool under a random
// sequence of adds and removes.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		model := map[int]bool{}
		for i := 0; i < 300; i++ {
			v := rng.Intn(256)
			if rng.Intn(2) == 0 {
				s.Add(v)
				model[v] = true
			} else {
				s.Remove(v)
				delete(model, v)
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for v := range model {
			if !s.Contains(v) {
				return false
			}
		}
		for _, v := range s.Values() {
			if !model[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Union/Diff/Intersect agree with the slice-model equivalents.
func TestQuickAlgebraModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng), randomSet(rng)
		am, bm := toMap(a), toMap(b)

		union := map[int]bool{}
		for v := range am {
			union[v] = true
		}
		for v := range bm {
			union[v] = true
		}
		inter := map[int]bool{}
		for v := range am {
			if bm[v] {
				inter[v] = true
			}
		}
		diff := map[int]bool{}
		for v := range am {
			if !bm[v] {
				diff[v] = true
			}
		}
		return setEqualsMap(a.Union(b), union) &&
			setEqualsMap(a.Intersect(b), inter) &&
			setEqualsMap(a.Diff(b), diff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randomSet(rng *rand.Rand) Set {
	var s Set
	n := rng.Intn(40)
	for i := 0; i < n; i++ {
		s.Add(rng.Intn(200))
	}
	return s
}

func toMap(s Set) map[int]bool {
	m := map[int]bool{}
	s.ForEach(func(v int) { m[v] = true })
	return m
}

func setEqualsMap(s Set, m map[int]bool) bool {
	if s.Len() != len(m) {
		return false
	}
	for v := range m {
		if !s.Contains(v) {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkAddContains(b *testing.B) {
	s := New(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(i & 1023)
		if !s.Contains(i & 1023) {
			b.Fatal("missing")
		}
	}
}

func TestCopyReusesStorage(t *testing.T) {
	src := FromSlice([]int{1, 70, 200})
	var dst Set
	dst.Copy(src)
	if !dst.Equal(src) {
		t.Fatalf("Copy: %v != %v", dst, src)
	}
	// Copying a smaller set into a larger one must clear stale bits.
	small := FromSlice([]int{2})
	dst.Copy(small)
	if !dst.Equal(small) {
		t.Fatalf("Copy smaller: %v != %v", dst, small)
	}
	if dst.Contains(200) {
		t.Fatal("stale bit survived Copy")
	}
	// The copy is independent of the source.
	dst.Add(5)
	if small.Contains(5) {
		t.Fatal("Copy aliased the source")
	}
}

func TestHashEqualSetsHashAlike(t *testing.T) {
	a := FromSlice([]int{3, 64, 129})
	b := New(512)
	b.Add(3)
	b.Add(64)
	b.Add(129)
	// a and b differ in backing length but are logically equal.
	if a.Hash(1) != b.Hash(1) {
		t.Fatal("equal sets with different word counts hash differently")
	}
	c := FromSlice([]int{3, 64})
	if a.Hash(1) == c.Hash(1) {
		t.Fatal("suspicious: unequal sets collided on the test inputs")
	}
	if a.Hash(1) == a.Hash(2) {
		t.Fatal("seed ignored by Hash")
	}
}

// TestNext walks a set with Next and must visit exactly Values, from any
// start, across word boundaries and past the last word.
func TestNext(t *testing.T) {
	s := FromSlice([]int{0, 5, 63, 64, 130, 191})
	var got []int
	for v := s.Next(0); v >= 0; v = s.Next(v + 1) {
		got = append(got, v)
	}
	if want := s.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Next walk = %v, want %v", got, want)
	}
	for _, tc := range []struct{ from, want int }{
		{-3, 0}, {1, 5}, {6, 63}, {65, 130}, {131, 191}, {192, -1}, {1000, -1},
	} {
		if got := s.Next(tc.from); got != tc.want {
			t.Errorf("Next(%d) = %d, want %d", tc.from, got, tc.want)
		}
	}
	if got := (Set{}).Next(0); got != -1 {
		t.Errorf("empty Next(0) = %d, want -1", got)
	}
}
