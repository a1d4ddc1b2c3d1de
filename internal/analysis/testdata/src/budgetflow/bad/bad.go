// Package bad writes recovery counters outside (*Metrics).charge:
// unchecked increments, an increment whose budget check one path skips,
// a checked increment, every other write form, and look-alikes of
// charge. Its fixture import path places it under internal/sim.
package bad

import (
	"errors"
	"fmt"
)

var ErrRetryBudget = errors.New("retry budget exhausted")

// Metrics mirrors sim.Metrics: integer recovery counters.
type Metrics struct {
	ProbeWait  int
	Retries    int
	Restarts   int
	Failovers  int
	Reconnects int
}

func UncheckedRetry(m *Metrics) {
	m.Retries++ // want `recovery counter m\.Retries is written outside \(\*Metrics\)\.charge`
}

func UncheckedRestartAdd(m *Metrics, n int) {
	m.Restarts += n // want `recovery counter m\.Restarts is written outside`
}

// SkippableCheck tests the budget only on the slow path; the fast
// return skips it.
func SkippableCheck(m *Metrics, budget int, fast bool) error {
	m.Failovers++ // want `recovery counter m\.Failovers is written outside`
	if fast {
		return nil
	}
	if m.Retries+m.Restarts+m.Failovers > budget {
		return ErrRetryBudget
	}
	return nil
}

// UnwrappedBudgetErr checks the budget, but outside charge. Its %v is
// errsentinel's finding.
func UnwrappedBudgetErr(m *Metrics, budget int) error {
	m.Retries++ // want `recovery counter m\.Retries is written outside`
	if m.Retries > budget {
		return fmt.Errorf("tune failed after %d retries: %v", m.Retries, ErrRetryBudget)
	}
	return nil
}

// OtherWrites covers the remaining write forms.
func OtherWrites(m *Metrics) (*int, Metrics, Metrics) {
	m.Reconnects--                               // want `recovery counter m\.Reconnects is written outside`
	m.Retries, m.ProbeWait = 0, 1                // want `recovery counter m\.Retries is written outside`
	keyed := Metrics{ProbeWait: 1, Failovers: 1} // want `recovery counter Metrics\.Failovers is written outside`
	unkeyed := Metrics{1, 0, 2, 0, 0}            // want `recovery counter Metrics\.Retries is written` `recovery counter Metrics\.Restarts is written` `recovery counter Metrics\.Failovers is written` `recovery counter Metrics\.Reconnects is written`
	return &m.Restarts, keyed, unkeyed           // want `recovery counter m\.Restarts is written outside`
}

// charge as a plain function is not the method, so it gets no pass.
func charge(m *Metrics) {
	m.Retries++ // want `recovery counter m\.Retries is written outside`
}

type other struct{}

// charge on another type gets no pass either.
func (other) charge(m *Metrics) {
	m.Restarts++ // want `recovery counter m\.Restarts is written outside`
}
