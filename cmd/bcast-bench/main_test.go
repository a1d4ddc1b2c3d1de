package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestAllSeed1Golden pins every byte of bcast-bench -exp all -seed 1 (the
// default -max-m and trial counts), so an experiment with no golden of its
// own, such as A2's search counters, cannot move unseen. Output is the same
// for any worker count; one worker keeps the run small. Regenerate with
// go test ./cmd/bcast-bench -run TestAllSeed1Golden -update only when a
// change to an experiment's output is intended, and say which lines moved.
func TestAllSeed1Golden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(options{exp: "all", seed: 1, maxM: 5, workers: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all_seed1.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			g, w := "", ""
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\ngot:  %s\nwant: %s", i+1, g, w)
			}
		}
	}
}

func TestRunEachExperiment(t *testing.T) {
	cases := []struct {
		exp  string
		want string
	}{
		{"fig2", "Optimal two channels"},
		{"table1", "63063000"},
		{"fig14", "sigma"},
		{"fig14multi", "sorting"},
		{"channels", "corollary1"},
		{"pruning", "saved"},
		{"heuristics", "partitioning"},
		{"sim", "SV96"},
		{"treeshape", "hu-tucker"},
		{"outage", "watchdog"},
		{"batch", "speedup"},
	}
	for _, c := range cases {
		t.Run(c.exp, func(t *testing.T) {
			var sb strings.Builder
			// Small trials and max-m keep the full matrix under a second
			// per experiment.
			if err := run(options{exp: c.exp, trials: 2, seed: 1, maxM: 4}, &sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), c.want) {
				t.Errorf("output missing %q:\n%s", c.want, sb.String())
			}
		})
	}
}

func TestRunFig14CSV(t *testing.T) {
	var sb strings.Builder
	if err := run(options{exp: "fig14", trials: 1, seed: 1, maxM: 3, csv: true}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sigma,optimal,sorting") {
		t.Errorf("CSV header missing:\n%s", sb.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run(options{exp: "warp", trials: 1, seed: 1, maxM: 3}, &strings.Builder{})
	if err == nil {
		t.Fatal("want error for unknown experiment")
	}
	// The error lists every registered experiment so a typo is
	// self-correcting at the terminal.
	for _, name := range []string{"table1", "fig14", "batch", "all"} {
		if !strings.Contains(err.Error(), name) { //nolint:bcast-errsentinel // the listing text itself is the contract under test, not a sentinel
			t.Errorf("unknown-experiment error does not list %q: %v", name, err)
		}
	}
}
