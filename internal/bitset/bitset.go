// Package bitset provides a dense bit set used as a node set by the
// allocation search algorithms. Sets are value types backed by a small
// slice of words; all operations that grow the set reallocate as needed
// so the zero value is an empty, ready-to-use set.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over non-negative integers.
// The zero value is an empty set.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity for values in [0, n).
// Values outside the initial capacity may still be added; the set grows.
func New(n int) Set {
	if n <= 0 {
		return Set{}
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

func (s *Set) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts v into the set. v must be non-negative.
func (s *Set) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("bitset: negative value %d", v))
	}
	w := v / wordBits
	s.grow(w)
	s.words[w] |= 1 << uint(v%wordBits)
}

// Remove deletes v from the set if present.
func (s *Set) Remove(v int) {
	if v < 0 {
		return
	}
	w := v / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(v%wordBits)
	}
}

// Contains reports whether v is in the set. A negative v converts to a
// word index past the end, so one unsigned compare rejects it too.
func (s Set) Contains(v int) bool {
	w := uint(v) / wordBits
	return w < uint(len(s.words)) && s.words[w]&(1<<(uint(v)%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Copy makes s an exact copy of t, reusing s's backing storage when it is
// large enough. Unlike Clone it performs no allocation once s has capacity
// for t's words, which makes it the workhorse of the search state pools.
func (s *Set) Copy(t Set) {
	if cap(s.words) < len(t.words) {
		s.words = make([]uint64, len(t.words))
	}
	s.words = s.words[:cap(s.words)]
	n := copy(s.words, t.words)
	for i := n; i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// Hash folds the set's contents into h, ignoring trailing zero words so
// logically equal sets hash alike. The mix is a splitmix-style word hash:
// it is not cryptographic, and callers that use it for map keys must
// collision-check (compare with Equal) before trusting a match.
func (s Set) Hash(h uint64) uint64 {
	words := s.words
	for len(words) > 0 && words[len(words)-1] == 0 {
		words = words[:len(words)-1]
	}
	for _, w := range words {
		h = HashWord(h, w)
	}
	return h
}

// HashWord mixes one 64-bit word into h with the same function Hash uses.
func HashWord(h, w uint64) uint64 {
	h ^= w + 0x9e3779b97f4a7c15
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	if len(s.words) == 0 {
		return Set{}
	}
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

// Equal reports whether s and t contain exactly the same elements.
func (s Set) Equal(t Set) bool {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i := range short {
		if long[i] != short[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Next returns the smallest element >= v, or -1 if there is none.
func (s Set) Next(v int) int {
	if v < 0 {
		v = 0
	}
	w := v / wordBits
	if w >= len(s.words) {
		return -1
	}
	if word := s.words[w] >> uint(v%wordBits); word != 0 {
		return v + bits.TrailingZeros64(word)
	}
	for w++; w < len(s.words); w++ {
		if s.words[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(s.words[w])
		}
	}
	return -1
}

// ForEach calls fn for each element in ascending order.
func (s Set) ForEach(fn func(v int)) {
	for i, w := range s.words {
		base := i * wordBits
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(base + b)
			w &^= 1 << uint(b)
		}
	}
}

// String renders the set as {v1 v2 ...} for debugging.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(v int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", v)
	})
	b.WriteByte('}')
	return b.String()
}
