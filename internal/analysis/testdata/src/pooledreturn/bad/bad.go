// Package bad violates the pool ownership contract both ways: a Get
// with no matching Put, and a use of a value after it was Put.
package bad

import (
	"sync"

	"repro/internal/pool"
)

var bufs = sync.Pool{New: func() any { return new([]byte) }}

func Leak() int {
	b := bufs.Get().(*[]byte) // want `bufs\.Get has no matching bufs\.Put`
	return len(*b)
}

type state struct{ v int }

func (s *state) get() int { return s.v }

// LeakField returns a field of the pooled value, not the value: nothing
// hands the state back or passes its ownership on.
func LeakField(p *pool.Pool[*state]) int {
	s := p.Get() // want `p\.Get has no matching p\.Put`
	return s.v
}

// LeakMethod returns what a method of the pooled value computes; the
// value itself is dropped on the floor.
func LeakMethod(p *pool.Pool[*state]) int {
	s := p.Get() // want `p\.Get has no matching p\.Put`
	return s.get()
}

func UseAfterPut(p *pool.Pool[*state]) int {
	s := p.Get()
	p.Put(s)
	return s.v // want `s is used after p\.Put`
}

// UseAfterBranchPut puts s back on one branch only; the read below the
// merge is a use-after-free on that path. The pre-CFG analyzer only
// scanned the statements after the Put inside the if body, so this is
// exactly the false negative the dataflow rehost closes.
func UseAfterBranchPut(p *pool.Pool[*state], dominated bool) int {
	s := p.Get()
	if dominated {
		p.Put(s)
	}
	return s.v // want `s is used after p\.Put`
}

// UseAfterLoopPut recycles at the bottom of the iteration, then reads
// the stale pointer before the next Get rebinds it.
func UseAfterLoopPut(p *pool.Pool[*state], rounds int) int {
	total := 0
	s := p.Get()
	for i := 0; i < rounds; i++ {
		total += s.v // want `s is used after p\.Put`
		p.Put(s)
	}
	return total
}
