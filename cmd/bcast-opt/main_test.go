package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tree"
)

func fig1File(t *testing.T) string {
	t.Helper()
	data, err := tree.Fig1().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig1.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOptimizeFig1TwoChannels(t *testing.T) {
	var sb strings.Builder
	if err := run(fig1File(t), 2, "auto", 12, false, false, false, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{
		"9 nodes (5 data)",
		"optimal: true",
		"average data wait: 3.7714", // 264/70
		"C1:",
		"C2:",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestOptimizeStrategies(t *testing.T) {
	path := fig1File(t)
	for _, s := range []string{"exact", "sorting", "data-tree", "shrinking", "partitioning"} {
		var sb strings.Builder
		if err := run(path, 1, s, 12, false, false, false, &sb); err != nil {
			t.Fatalf("strategy %s: %v", s, err)
		}
		if !strings.Contains(sb.String(), "average data wait") {
			t.Errorf("strategy %s produced no wait line", s)
		}
	}
}

func TestOptimizeShowTree(t *testing.T) {
	var sb strings.Builder
	if err := run(fig1File(t), 2, "auto", 12, false, true, false, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"2 paths", "{2,3}", "cost 264"} {
		if !strings.Contains(out, frag) {
			t.Errorf("show-tree output missing %q:\n%s", frag, out)
		}
	}
}

func TestOptimizeShowDataTree(t *testing.T) {
	var sb strings.Builder
	if err := run(fig1File(t), 1, "auto", 12, false, false, true, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"pruned data tree", "{1,2},{1,2} A", "cost 391"} {
		if !strings.Contains(out, frag) {
			t.Errorf("show-datatree output missing %q:\n%s", frag, out)
		}
	}
	if err := run(fig1File(t), 2, "auto", 12, false, false, true, &strings.Builder{}); err == nil {
		t.Fatal("want error for -show-datatree with k=2")
	}
}

func TestOptimizeDOT(t *testing.T) {
	var sb strings.Builder
	if err := run(fig1File(t), 1, "auto", 12, true, false, false, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph") {
		t.Error("missing DOT output")
	}
}

func TestOptimizeErrors(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "missing.json"), 1, "auto", 12, false, false, false, &strings.Builder{}); err == nil {
		t.Fatal("want error for missing file")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if err := run(bad, 1, "auto", 12, false, false, false, &strings.Builder{}); err == nil {
		t.Fatal("want error for malformed JSON")
	}
	if err := run(fig1File(t), 1, "warp-drive", 12, false, false, false, &strings.Builder{}); err == nil {
		t.Fatal("want error for unknown strategy")
	}
	if err := run(fig1File(t), 0, "auto", 12, false, false, false, &strings.Builder{}); err == nil {
		t.Fatal("want error for k=0")
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestShowTreeGoldens pins the full -show-tree and -show-datatree output
// on the paper's Fig. 1 tree byte for byte: the allocation header, the
// channel grid and every node of the rendered search tree (the structures
// of Figs. 6, 10 and 12). Regenerate with
// go test ./cmd/bcast-opt -run TestShowTreeGoldens -update only when a
// change to the search trees is intended.
func TestShowTreeGoldens(t *testing.T) {
	path := fig1File(t)
	for _, tc := range []struct {
		name               string
		k                  int
		showTree, showData bool
	}{
		{"fig1_show_tree_k2", 2, true, false},
		{"fig1_show_tree_k1", 1, true, false},
		{"fig1_show_datatree_k1", 1, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(path, tc.k, "auto", 12, false, tc.showTree, tc.showData, &sb); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if sb.String() != string(want) {
				t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", golden, sb.String(), want)
			}
		})
	}
}
