// Package good writes recovery counters only in (*Metrics).charge,
// which tests the shared budget on every call; everything else reads
// them or weights them into float64 Summary aggregates.
package good

import (
	"errors"
	"fmt"
)

var ErrRetryBudget = errors.New("retry budget exhausted")

type Metrics struct {
	ProbeWait  int
	Retries    int
	Restarts   int
	Failovers  int
	Reconnects int
}

// Summary mirrors sim.Summary: float64 aggregates of per-trial
// metrics. Weighting counters into a summary charges nothing.
type Summary struct {
	Retries    float64
	Restarts   float64
	Failovers  float64
	Reconnects float64
}

// charge is the one writer, so every recovery meets the budget test.
func (m *Metrics) charge(restart bool, budget int) error {
	if restart {
		m.Restarts++
	} else {
		m.Retries += 1
	}
	if m.Retries+m.Restarts+m.Failovers+m.Reconnects > budget {
		return fmt.Errorf("after %d retries: %w", m.Retries, ErrRetryBudget)
	}
	return nil
}

// Reset clears the whole value and sets fields that are not counters.
func Reset(m *Metrics) Metrics {
	*m = Metrics{}
	m.ProbeWait = 3
	return Metrics{ProbeWait: m.Retries + m.Restarts}
}

// Aggregate weights trial metrics into a summary; these float64
// accumulations are bookkeeping, not budget charges.
func Aggregate(s *Summary, m *Metrics, w float64) {
	s.Retries += w * float64(m.Retries)
	s.Restarts += w * float64(m.Restarts)
	s.Failovers += w * float64(m.Failovers)
	s.Reconnects += w * float64(m.Reconnects)
	_ = &s.Retries
}
