package sim

import (
	"errors"
	"testing"

	"repro/internal/fault"
)

// faultPw is the power model used throughout the lossy-channel tests.
var faultPw = Power{Active: 1, Doze: 0.05}

func TestQueryFaultyZeroModelMatchesQuery(t *testing.T) {
	p := keyedProgram(t, 8, 2, 1)
	for _, d := range p.Tree().DataIDs() {
		for a := 0; a < p.CycleLen(); a++ {
			want, err := p.Query(a, d, faultPw)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.QueryFaulty(a, d, faultPw, FaultConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("zero model diverged: %+v != %+v", got, want)
			}
			if got.Retries != 0 {
				t.Fatalf("retries on a perfect channel: %+v", got)
			}
		}
	}
}

func TestQueryFaultyDeterministic(t *testing.T) {
	p := keyedProgram(t, 8, 2, 2)
	fc := FaultConfig{Model: fault.Model{Seed: 9, Drop: 0.2, Corrupt: 0.1}}
	d := p.Tree().DataIDs()[3]
	a, err := p.QueryFaulty(1, d, faultPw, fc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.QueryFaulty(1, d, faultPw, fc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged: %+v != %+v", a, b)
	}
}

// TestQueryFaultyDegradesMonotonically: a lossy run never beats the
// perfect run for the same arrival and target, and every retry costs
// whole cycles of access time.
func TestQueryFaultyDegradesMonotonically(t *testing.T) {
	p := keyedProgram(t, 9, 2, 3)
	fc := FaultConfig{Model: fault.Model{Seed: 4, Drop: 0.25, Corrupt: 0.1}}
	totalRetries := 0
	for _, d := range p.Tree().DataIDs() {
		for a := 0; a < p.CycleLen(); a++ {
			perfect, err := p.Query(a, d, faultPw)
			if err != nil {
				t.Fatal(err)
			}
			lossy, err := p.QueryFaulty(a, d, faultPw, fc)
			if err != nil {
				t.Fatal(err)
			}
			totalRetries += lossy.Retries
			if lossy.AccessTime < perfect.AccessTime || lossy.TuningTime < perfect.TuningTime {
				t.Fatalf("lossy run beat the perfect one: %+v < %+v", lossy, perfect)
			}
			if lossy.AccessTime != lossy.ProbeWait+lossy.DataWait {
				t.Fatalf("metrics inconsistent: %+v", lossy)
			}
			if lossy.Retries == 0 && lossy != perfect {
				t.Fatalf("no retries but metrics diverged: %+v != %+v", lossy, perfect)
			}
			// Each redundant wake-up burns exactly one tuned read.
			if lossy.TuningTime-perfect.TuningTime != lossy.Retries {
				t.Fatalf("tuning time off: lossy %+v perfect %+v", lossy, perfect)
			}
		}
	}
	if totalRetries == 0 {
		t.Fatal("25%+10% loss produced no retries at all")
	}
}

func TestQueryFaultyBudgetExhausted(t *testing.T) {
	p := keyedProgram(t, 6, 1, 5)
	fc := FaultConfig{Model: fault.Model{Seed: 1, Drop: 1}, MaxRetries: 3}
	_, err := p.QueryFaulty(0, p.Tree().DataIDs()[0], faultPw, fc)
	if !errors.Is(err, fault.ErrRetryBudget) {
		t.Fatalf("want ErrRetryBudget, got %v", err)
	}
}

func TestEvaluateFaulty(t *testing.T) {
	p := keyedProgram(t, 8, 2, 6)
	perfect, err := Evaluate(p, faultPw)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := EvaluateFaulty(p, faultPw, FaultConfig{
		Model: fault.Model{Seed: 2, Drop: 0.15, Corrupt: 0.15},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Retries <= 0 {
		t.Fatalf("no expected retries under 30%% loss: %+v", lossy)
	}
	if lossy.AccessTime <= perfect.AccessTime {
		t.Fatalf("loss did not degrade access time: %v <= %v", lossy.AccessTime, perfect.AccessTime)
	}
	if perfect.Retries != 0 {
		t.Fatalf("perfect channel reported retries: %+v", perfect)
	}
}

// TestQueryRangeFaultyCompleteness: loss delays a range scan but never
// loses results — the retrieved key set matches the perfect scan.
func TestQueryRangeFaultyCompleteness(t *testing.T) {
	p := keyedProgram(t, 10, 2, 7)
	fc := FaultConfig{Model: fault.Model{Seed: 3, Drop: 0.2}, MaxRetries: 256}
	perfect, err := p.QueryRange(1, 2, 9, faultPw)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := p.timeline().QueryRangeSwitch(1, 2, 9, faultPw, fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(lossy.Keys) != len(perfect.Keys) {
		t.Fatalf("lossy scan lost keys: %v vs %v", lossy.Keys, perfect.Keys)
	}
	seen := map[int64]bool{}
	for _, k := range lossy.Keys {
		seen[k] = true
	}
	for _, k := range perfect.Keys {
		if !seen[k] {
			t.Fatalf("key %d missing from lossy scan %v", k, lossy.Keys)
		}
	}
	if lossy.Metrics.AccessTime < perfect.Metrics.AccessTime {
		t.Fatalf("lossy scan finished early: %+v vs %+v", lossy.Metrics, perfect.Metrics)
	}
}

func TestQueryRangeFaultyBudget(t *testing.T) {
	p := keyedProgram(t, 6, 1, 8)
	fc := FaultConfig{Model: fault.Model{Seed: 1, Drop: 1}, MaxRetries: 4}
	_, err := p.timeline().QueryRangeSwitch(0, 1, 6, faultPw, fc)
	if !errors.Is(err, fault.ErrRetryBudget) {
		t.Fatalf("want ErrRetryBudget, got %v", err)
	}
}
