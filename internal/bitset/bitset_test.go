package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEmptySet(t *testing.T) {
	var s Set
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

func TestEqualAcrossCapacities(t *testing.T) {
	a := New(1000)
	a.Add(5)
	b := of(5)
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("sets with equal contents but different capacity should be Equal")
	}
	if a.Hash(0) != b.Hash(0) {
		t.Error("sets with equal contents but different capacity hash differently")
	}
	b.Add(999)
	if a.Equal(b) {
		t.Error("unequal sets reported Equal")
	}
}

func TestSubsetOf(t *testing.T) {
	a := of(1, 2)
	b := of(1, 2, 3)
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
	a := of(1, 2)
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

func TestForEachOrder(t *testing.T) {
	s := of(63, 64, 65, 0, 127, 128, 5, 99)
	want := []int{0, 5, 63, 64, 65, 99, 127, 128}
	if got := values(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("ForEach visits %v, want %v", got, want)
	}
}

// The values listed from a set built out of order come back sorted,
// each once, across a word boundary.
func TestValuesSorted(t *testing.T) {
	s := of(5, 1, 99, 64, 63, 0, 5)
	want := []int{0, 1, 5, 63, 64, 99}
	if got := values(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("values = %v, want %v", got, want)
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
		for _, v := range values(s) {
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

// of returns a set holding vs.
func of(vs ...int) Set {
	var s Set
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

// values lists s in the order ForEach visits it.
func values(s Set) []int {
	var out []int
	s.ForEach(func(v int) { out = append(out, v) })
	return out
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
	src := of(1, 70, 200)
	var dst Set
	dst.Copy(src)
	if !dst.Equal(src) {
		t.Fatalf("Copy: %v != %v", dst, src)
	}
	// Copying a smaller set into a larger one must clear stale bits.
	small := of(2)
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
	a := of(3, 64, 129)
	b := New(512)
	b.Add(3)
	b.Add(64)
	b.Add(129)
	// a and b differ in backing length but are logically equal.
	if a.Hash(1) != b.Hash(1) {
		t.Fatal("equal sets with different word counts hash differently")
	}
	c := of(3, 64)
	if a.Hash(1) == c.Hash(1) {
		t.Fatal("suspicious: unequal sets collided on the test inputs")
	}
	if a.Hash(1) == a.Hash(2) {
		t.Fatal("seed ignored by Hash")
	}
}

// TestNext walks a set with Next and must visit exactly what ForEach
// visits, from any start, across word boundaries and past the last word.
func TestNext(t *testing.T) {
	s := of(0, 5, 63, 64, 130, 191)
	var got []int
	for v := s.Next(0); v >= 0; v = s.Next(v + 1) {
		got = append(got, v)
	}
	if want := values(s); !reflect.DeepEqual(got, want) {
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
