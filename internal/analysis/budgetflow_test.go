package analysis

import "testing"

func TestBudgetFlowFiresOnWritesOutsideCharge(t *testing.T) {
	RunFixture(t, BudgetFlow, "fix/internal/sim/bad", "testdata/src/budgetflow/bad")
}

func TestBudgetFlowSilentInChargeAndAggregates(t *testing.T) {
	RunFixture(t, BudgetFlow, "fix/internal/sim/good", "testdata/src/budgetflow/good")
}
