package netcast

import "fmt"

// checkTickBookkeeping asserts, under the server lock, the invariants the
// idle-tick fast path of Tick rests on: waiting counts exactly the
// registered connections with no wake-up pending, and nextDue is at most
// every pending slot, none of which has aired yet. Both hold whenever the
// lock is free, so tests may call it between any two operations.
func (s *Server) checkTickBookkeeping() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	waiting := 0
	for _, st := range s.conns {
		if !st.hasPending {
			waiting++
			continue
		}
		if st.slot < s.nextDue {
			return fmt.Errorf("pending slot %d below nextDue %d", st.slot, s.nextDue)
		}
		if st.slot < s.now {
			return fmt.Errorf("pending slot %d already aired (clock %d)", st.slot, s.now)
		}
	}
	if waiting != s.waiting {
		return fmt.Errorf("waiting = %d, but %d of %d connections have no wake-up pending",
			s.waiting, waiting, len(s.conns))
	}
	return nil
}
