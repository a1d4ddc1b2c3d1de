package analysis

import "testing"

func TestDeterminismFiresOnViolations(t *testing.T) {
	RunFixture(t, Determinism, "fix/internal/sim/bad", "testdata/src/determinism/bad")
}

func TestDeterminismSilentOnSeededAndSorted(t *testing.T) {
	RunFixture(t, Determinism, "fix/internal/sim/good", "testdata/src/determinism/good")
}

func TestDeterminismScopedToDeterministicPaths(t *testing.T) {
	RunFixture(t, Determinism, "fix/outside", "testdata/src/determinism/outside")
}

func TestPathMatches(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/sim", true},
		{"repro/internal/sim.test", true}, // external test unit suffix
		{"repro/internal/simx", false},
		{"x/internal/sim/deep", true},
		{"repro/internal/obs", true},
		{"repro/internal/retrieval", true},
		{"repro/internal/retrieval/sub", true},
		{"repro/internal/bestfirst", true}, // the searches' queue loop
		{"repro/internal/netcast", false},
		{"repro", false},
	}
	for _, c := range cases {
		if got := pathMatches(c.path, DeterministicPaths); got != c.want {
			t.Errorf("pathMatches(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
