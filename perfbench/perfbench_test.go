package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"repro/internal/analysis"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload briefly, untraced and traced, through
// the same code path as the benchmark command, and checks that every
// declared metric is reported with its unit and that nothing failed.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			env := environment{Workload: w.Name, Seed: 3, Seconds: 1, Trace: traced}
			sum, notes, err := execute(env, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.Name, traced, sum.Correct, sum.Attempted, sum.Failed, notes)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.Name, traced, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := sum.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, declared %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				// Under the race detector one period's planning can outlast
				// every chunk of a one-second window, so rates may read 0.
				case !traced && got.Value <= 0 && !raceEnabled():
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// raceEnabled reports whether the test binary was built with -race,
// which slows planning about tenfold.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestVetClean holds the benchmark to the repository's own analyzers
// (cmd/bcast-vet). The benchmark is a nested module, which the
// module-wide bcast-vet run skips, so it is loaded here under the main
// module's root.
func TestVetClean(t *testing.T) {
	l, err := analysis.NewLoader("..")
	if err != nil {
		t.Fatal(err)
	}
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	units, err := l.LoadDir(dir, "repro/perfbench")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range analysis.RunAnalyzers(units, analysis.All()) {
		t.Error(d)
	}
}
