package bitset

import (
	"testing"

	"repro/internal/pool"
)

// TestPoolReuseReturnsZeroedSets pins the contract the search state
// pools are built on: a Set recycled through pool.Pool and refilled with
// Copy behaves exactly like a freshly allocated one — no stale bits, and
// the same Hash, so dominance-table lookups cannot diverge
// between a fresh state and a recycled one.
func TestPoolReuseReturnsZeroedSets(t *testing.T) {
	p := pool.New(func() *Set { s := New(256); return &s })

	dirty := p.Get()
	for v := 0; v < 256; v += 3 {
		dirty.Add(v)
	}
	p.Put(dirty)

	fresh := New(256)
	fresh.Add(2)
	fresh.Add(129) // different word than 2: stale high words must clear

	recycled := p.Get()
	recycled.Copy(fresh)
	defer p.Put(recycled)
	if !recycled.Equal(fresh) {
		t.Fatalf("recycled set %v != fresh %v", *recycled, fresh)
	}
	for v := 0; v < 256; v++ {
		if recycled.Contains(v) != fresh.Contains(v) {
			t.Fatalf("stale bit %d survived pool reuse", v)
		}
	}
	if recycled.Hash(0) != fresh.Hash(0) {
		t.Fatal("recycled set hashes differently from an equal fresh set")
	}
}

// TestPoolReuseAfterClearIsEmpty: the other reuse idiom — Copy of the
// zero Set to clear in place before refilling — must also leave no residue.
func TestPoolReuseAfterClearIsEmpty(t *testing.T) {
	p := pool.New(func() *Set { s := New(128); return &s })
	s := p.Get()
	s.Add(7)
	s.Add(127)
	s.Copy(Set{})
	if s.Len() != 0 {
		t.Fatalf("clearing Copy left residue: %v", *s)
	}
	p.Put(s)
	got := p.Get()
	defer p.Put(got)
	if got.Len() != 0 {
		t.Fatalf("recycled cleared set is not empty: %v", *got)
	}
}
