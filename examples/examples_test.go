// Package examples_test runs every example program and pins its output.
package examples_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestExamplesGolden builds each program under examples/ and compares
// every byte it prints with testdata/<name>.golden. The examples are
// deterministic, so any change in their output is a change in what the
// library computes. Regenerate with go test ./examples -update only when
// that change is intended.
func TestExamplesGolden(t *testing.T) {
	dirs, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	ran := 0
	for _, d := range dirs {
		name := d.Name()
		if !d.IsDir() || name == "testdata" {
			continue
		}
		ran++
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(bin, name)
			if out, err := exec.Command("go", "build", "-o", exe, "./"+name).CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			got, err := exec.Command(exe).Output()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, want) {
				return
			}
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
		})
	}
	if ran == 0 {
		t.Fatal("found no example to run")
	}
}
