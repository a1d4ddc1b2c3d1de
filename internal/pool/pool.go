// Package pool provides the tiny LIFO free list the best-first engine
// (internal/bestfirst) recycles dominated states through. Unlike sync.Pool
// it is not safe for concurrent use and never sheds items under GC
// pressure: the engine is single-goroutine and wants deterministic,
// replayable reuse, so a plain slice-backed free list is both faster and
// reproducible.
//
// Ownership contract (enforced by the bcast-vet pooledreturn analyzer):
// a function that calls Get must also contain a Put on the same pool —
// dominated work goes back to the free list; surviving values escape by
// being handed off (queued or returned) — and a value must not be used
// after it has been Put.
package pool

// Pool is a LIFO free list of T. The zero value is not usable; call New.
type Pool[T any] struct {
	free  []T
	newFn func() T
}

// New returns an empty pool whose Get falls back to newFn.
func New[T any](newFn func() T) *Pool[T] {
	return &Pool[T]{newFn: newFn}
}

// Get returns the most recently Put item, or a fresh newFn() value when
// the free list is empty. Recycled items are returned as-is: the caller
// resets whatever state the constructor does not.
func (p *Pool[T]) Get() T {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		var zero T
		p.free[n-1] = zero // drop the alias so the item has one owner
		p.free = p.free[:n-1]
		return v
	}
	return p.newFn()
}

// Put parks v on the free list for a future Get. The caller must not
// use v afterwards.
func (p *Pool[T]) Put(v T) {
	p.free = append(p.free, v)
}

// Len reports how many items are parked on the free list.
func (p *Pool[T]) Len() int { return len(p.free) }
