package sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/tree"
)

// script is a scripted Medium: serve answers every request, and every
// redial succeeds. It lets a test hand the engine buckets no compiled
// program would air — what a corrupt or hostile tower might send.
type script struct {
	serve func(ch, slot int) Reply
	reply Reply
}

func (s *script) Hear(ch, slot int) *Reply {
	s.reply = s.serve(ch, slot)
	return &s.reply
}

func (s *script) Redial(int) bool { return true }

// heard is a usable reply at the requested slot.
func heard(slot int, v View) Reply {
	v.Node = tree.None
	if v.RootChannel == 0 {
		v.RootChannel = 1
	}
	return Reply{Status: Heard, Slot: slot, View: v}
}

// TestSessionRejectsNonRootAfterSync: a tower whose cycle starts hold no
// root must fail the session with ErrMissingRoot after the bounded number
// of sync jumps, for point lookups and range scans alike — a range scan
// that took whatever bucket the jump landed on would scan a subtree and
// report its keys as the whole answer.
func TestSessionRejectsNonRootAfterSync(t *testing.T) {
	reads := 0
	md := &script{serve: func(ch, slot int) Reply {
		reads++
		// An index bucket that covers every key but never opens a descent.
		return heard(slot, View{Kind: KindIndex, NextCycle: 4, Pointers: []Pointer{
			{Channel: 1, Offset: 1, Target: tree.None, KeyLo: 0, KeyHi: 100},
		}})
	}}
	s := Session{Medium: md}
	if _, _, _, err := s.Lookup(0, 7, testPower); !errors.Is(err, ErrMissingRoot) {
		t.Fatalf("point lookup: err %v, want ErrMissingRoot", err)
	}
	if reads != MaxProbeRedirects+1 {
		t.Fatalf("point lookup read %d buckets, want the probe plus %d sync jumps", reads, MaxProbeRedirects)
	}
	reads = 0
	s = Session{Medium: md}
	keys, _, err := s.LookupRange(0, 1, 100, testPower)
	if !errors.Is(err, ErrMissingRoot) {
		t.Fatalf("range scan: keys %v err %v, want ErrMissingRoot", keys, err)
	}
	if reads != MaxProbeRedirects+1 {
		t.Fatalf("range scan read %d buckets, want the probe plus %d sync jumps", reads, MaxProbeRedirects)
	}
}

// TestSessionRejectsEmptyPointerTarget: a pointer that leads to an empty
// bucket is a broken pointer, whether a range scan's frontier or a point
// descent follows it — the medium need not know node IDs for the engine
// to tell.
func TestSessionRejectsEmptyPointerTarget(t *testing.T) {
	md := &script{serve: func(ch, slot int) Reply {
		if slot == 0 {
			return heard(slot, View{Kind: KindIndex, Start: true, NextCycle: 4, Pointers: []Pointer{
				{Channel: 1, Offset: 2, Target: tree.None, KeyLo: 1, KeyHi: 5},
			}})
		}
		return heard(slot, View{Kind: KindEmpty, NextCycle: 4 - slot%4})
	}}
	s := Session{Medium: md}
	if keys, _, err := s.LookupRange(0, 1, 5, testPower); !errors.Is(err, ErrBrokenPointer) {
		t.Fatalf("range scan: keys %v err %v, want ErrBrokenPointer", keys, err)
	}
	s = Session{Medium: md}
	if found, _, _, err := s.Lookup(0, 3, testPower); !errors.Is(err, ErrBrokenPointer) {
		t.Fatalf("point lookup: found %v err %v, want ErrBrokenPointer", found, err)
	}
}

// TestSessionTransportErrorEndsSession: a reply carrying Err ends the
// session with exactly that error, charging nothing.
func TestSessionTransportErrorEndsSession(t *testing.T) {
	gone := errors.New("connection reset")
	s := Session{Medium: &script{serve: func(ch, slot int) Reply { return Reply{Err: gone} }}}
	_, _, m, err := s.Lookup(0, 1, testPower)
	if !errors.Is(err, gone) {
		t.Fatalf("err %v, want the transport error", err)
	}
	if m != (Metrics{}) {
		t.Fatalf("metrics %+v, want nothing spent", m)
	}
}

// TestChargeBudgetBoundary drives the one budget site directly with the
// four recovery classes interleaved: every charge up to the budget
// passes, and the next fails with fault.ErrRetryBudget, leaving the
// counters equal to the charges made and naming the class that
// overflowed. Each class in turn is the one that overflows.
func TestChargeBudgetBoundary(t *testing.T) {
	classes := []Recovery{Retry, Restart, Failover, Reconnect}
	nouns := map[Recovery]string{
		Retry:     "redundant wake-ups",
		Restart:   "descent restarts",
		Failover:  "channel failovers",
		Reconnect: "reconnect attempts",
	}
	for _, budget := range []int{0, 1, 5} {
		for first := range classes {
			var m, want Metrics
			count := map[Recovery]*int{
				Retry: &want.Retries, Restart: &want.Restarts,
				Failover: &want.Failovers, Reconnect: &want.Reconnects,
			}
			for i := 0; i <= budget; i++ {
				r := classes[(first+i)%len(classes)]
				ch, slot := 1+i%3, 7*i
				err := m.charge(r, budget, ch, slot)
				*count[r]++
				if m != want {
					t.Fatalf("budget %d, charge %d (%s): metrics %+v, want %+v", budget, i, nouns[r], m, want)
				}
				if i < budget {
					if err != nil {
						t.Fatalf("budget %d, charge %d (%s) within budget: %v", budget, i, nouns[r], err)
					}
					continue
				}
				if !errors.Is(err, fault.ErrRetryBudget) {
					t.Fatalf("budget %d, charge %d (%s) over budget: err = %v, want ErrRetryBudget", budget, i, nouns[r], err)
				}
				// The text is part of the contract here: it must name the
				// class and how many of it were spent before the overflow.
				msg := fmt.Sprintf("sim: channel %d slot %d: %v after %d %s", ch, slot, fault.ErrRetryBudget, *count[r]-1, nouns[r])
				if got := fmt.Sprint(err); got != msg { //nolint:bcast-errsentinel // the budget message is the contract under test; errors.Is above already checks the sentinel
					t.Errorf("budget %d: message %q, want %q", budget, got, msg)
				}
			}
		}
	}
}
