// Package pqueue provides the small generic binary min-heap shared by the
// best-first search engine (internal/bestfirst), Huffman construction and
// the range query's pending-read queue. Unlike container/heap it needs no
// interface boilerplate and does not box elements.
package pqueue

// Queue is a binary min-heap ordered by the less function given at
// construction. The zero value is not usable; call New.
type Queue[T any] struct {
	items []T
	less  func(a, b T) bool
	peak  int
}

// New returns an empty queue ordered by less.
func New[T any](less func(a, b T) bool) *Queue[T] {
	return &Queue[T]{less: less}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Peak returns the maximum length the queue has reached — a memory
// high-water mark for the search engines' perf counters.
func (q *Queue[T]) Peak() int { return q.peak }

// Reserve grows the queue's capacity so the next n pushes need no
// reallocation.
func (q *Queue[T]) Reserve(n int) {
	if need := len(q.items) + n; need > cap(q.items) {
		items := make([]T, len(q.items), need)
		copy(items, q.items)
		q.items = items
	}
}

// Push inserts v.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	if len(q.items) > q.peak {
		q.peak = len(q.items)
	}
	q.up(len(q.items) - 1)
}

// Pop removes and returns the minimum item. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	n := len(q.items) - 1
	q.items[0], q.items[n] = q.items[n], q.items[0]
	v := q.items[n]
	var zero T
	q.items[n] = zero // release references for the garbage collector
	q.items = q.items[:n]
	if n > 0 {
		q.down(0)
	}
	return v
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.items[i], q.items[parent]) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(q.items[l], q.items[smallest]) {
			smallest = l
		}
		if r < n && q.less(q.items[r], q.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
