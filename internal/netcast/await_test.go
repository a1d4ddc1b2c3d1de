package netcast

import (
	"repro/internal/sim"
	"runtime"
	"testing"
	"time"
)

// awaitTimeout bounds how long a test waits for a client session running
// on another goroutine. Every session in this package's tests finishes in
// well under a second, so a session still running after this long is a
// hang, not a slow machine.
const awaitTimeout = 60 * time.Second

// await receives one result from done. If nothing arrives within
// awaitTimeout it fails the test with every goroutine's stack, so a hung
// lockstep session shows where it is stuck within a minute instead of
// running into the whole suite's timeout.
func await[T any](t testing.TB, done <-chan T) T {
	t.Helper()
	timer := time.NewTimer(awaitTimeout)
	defer timer.Stop()
	select {
	case v := <-done:
		return v
	case <-timer.C:
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("no result after %v; goroutines:\n%s", awaitTimeout, buf)
		panic("unreachable")
	}
}

// staticTimeline is the single-epoch timeline of a static program: how a
// test runs the analytic twin of a static tower in a faulty environment.
func staticTimeline(t testing.TB, p *sim.Program) *sim.Timeline {
	t.Helper()
	tl, err := sim.NewTimeline(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}
