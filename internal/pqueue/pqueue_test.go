package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicOrdering(t *testing.T) {
	q := New(func(a, b int) bool { return a < b })
	for _, v := range []int{5, 1, 4, 1, 3} {
		q.Push(v)
	}
	var got []int
	for q.Len() > 0 {
		got = append(got, q.Pop())
	}
	want := []int{1, 1, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestStructElements(t *testing.T) {
	type task struct {
		prio float64
		name string
	}
	q := New(func(a, b task) bool { return a.prio < b.prio })
	q.Push(task{2.5, "b"})
	q.Push(task{1.5, "a"})
	q.Push(task{3.5, "c"})
	if got := q.Pop().name; got != "a" {
		t.Fatalf("first pop = %s", got)
	}
	if got := q.Pop().name; got != "b" {
		t.Fatalf("second pop = %s", got)
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty queue should panic")
		}
	}()
	New(func(a, b int) bool { return a < b }).Pop()
}

// Property: popping everything yields a sorted permutation of the pushes,
// under interleaved push/pop traffic.
func TestQuickHeapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(func(a, b int) bool { return a < b })
		var pushed, popped []int
		for i := 0; i < 400; i++ {
			if rng.Intn(3) != 0 || q.Len() == 0 {
				v := rng.Intn(1000)
				pushed = append(pushed, v)
				q.Push(v)
			} else {
				popped = append(popped, q.Pop())
			}
		}
		for q.Len() > 0 {
			popped = append(popped, q.Pop())
		}
		if len(pushed) != len(popped) {
			return false
		}
		// Every pop while the queue drains monotonically at the end, and
		// the multisets match.
		sort.Ints(pushed)
		check := append([]int(nil), popped...)
		sort.Ints(check)
		for i := range pushed {
			if pushed[i] != check[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	q := New(func(a, b int) bool { return a < b })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i ^ 0x5555)
		if q.Len() > 1024 {
			for q.Len() > 0 {
				q.Pop()
			}
		}
	}
}

func TestPeakAndReserve(t *testing.T) {
	q := New(func(a, b int) bool { return a < b })
	if q.Peak() != 0 {
		t.Fatalf("fresh queue peak = %d", q.Peak())
	}
	q.Reserve(16)
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Pop()
	q.Push(99)
	if q.Peak() != 5 {
		t.Fatalf("peak = %d, want 5", q.Peak())
	}
	if q.Len() != 4 {
		t.Fatalf("len = %d, want 4", q.Len())
	}
}
