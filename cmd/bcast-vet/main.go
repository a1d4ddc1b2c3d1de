// Command bcast-vet runs the repo's custom static analyzers — the
// determinism, pooling, goroutine-lifecycle, error-sentinel (errors.Is
// and %w), lock-discipline, obs-registry, and one-budget-writer
// invariants documented in DESIGN.md §9 — over module packages.
//
// Usage:
//
//	bcast-vet [-list] [-json file] [-timebudget d] [pattern ...]
//
// Patterns are module-relative: "./..." (the default), "./internal/sim",
// or "internal/topo/...". Diagnostics print to stdout one per line as
// file:line:col: message [bcast-analyzer]; the exit status is 0 when the
// tree is clean, 1 when any analyzer fired (or overran -timebudget),
// and 2 when loading or type-checking failed.
//
// -json writes a machine-readable report — analyzer roster, every
// diagnostic, and per-(analyzer, package) wall times — to the named
// file ("-" for stdout), so CI can archive the run next to the bench
// artifacts. -timebudget fails the run when any single analyzer spends
// longer than the budget on one package: an accidentally super-linear
// dataflow pass becomes a red check instead of a slow one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
)

// report is the -json payload. Field names are part of the CI contract
// (scripts/check.sh archives the file as an artifact); extend, don't
// rename.
type report struct {
	Analyzers   []string       `json:"analyzers"`
	Diagnostics []reportDiag   `json:"diagnostics"`
	Timings     []reportTiming `json:"timings"`
}

type reportDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

type reportTiming struct {
	Analyzer string `json:"analyzer"`
	Path     string `json:"path"`
	Nanos    int64  `json:"nanos"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bcast-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	jsonPath := fs.String("json", "", "write a JSON report (diagnostics + timings) to `file`, \"-\" for stdout")
	budget := fs.Duration("timebudget", 0, "fail if any analyzer spends longer than `d` on a single package (0 disables)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: bcast-vet [-list] [-json file] [-timebudget d] [pattern ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "bcast-%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintf(stderr, "bcast-vet: %v\n", err)
		return 2
	}
	diags, timings, err := analysis.VetTimed(root, patterns, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "bcast-vet: %v\n", err)
		return 2
	}
	for i := range diags {
		diags[i].Pos.Filename = relToCwd(diags[i].Pos.Filename)
	}
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, stdout, analyzers, diags, timings); err != nil {
			fmt.Fprintf(stderr, "bcast-vet: %v\n", err)
			return 2
		}
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	over := 0
	if *budget > 0 {
		for _, tm := range timings {
			if tm.Elapsed > *budget {
				fmt.Fprintf(stderr, "bcast-vet: bcast-%s spent %v on %s (budget %v)\n",
					tm.Analyzer, tm.Elapsed.Round(time.Millisecond), tm.Path, *budget)
				over++
			}
		}
	}
	if n := len(diags); n > 0 || over > 0 {
		if n > 0 {
			fmt.Fprintf(stderr, "bcast-vet: %d issue(s)\n", n)
		}
		if over > 0 {
			fmt.Fprintf(stderr, "bcast-vet: %d analyzer run(s) over time budget\n", over)
		}
		return 1
	}
	return 0
}

// writeReport marshals the run into the -json contract shape.
func writeReport(path string, stdout io.Writer, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic, timings []analysis.Timing) error {
	r := report{
		Analyzers:   make([]string, 0, len(analyzers)),
		Diagnostics: make([]reportDiag, 0, len(diags)),
		Timings:     make([]reportTiming, 0, len(timings)),
	}
	for _, a := range analyzers {
		r.Analyzers = append(r.Analyzers, "bcast-"+a.Name)
	}
	for _, d := range diags {
		r.Diagnostics = append(r.Diagnostics, reportDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: "bcast-" + d.Analyzer,
			Message:  d.Message,
		})
	}
	for _, tm := range timings {
		r.Timings = append(r.Timings, reportTiming{Analyzer: "bcast-" + tm.Analyzer, Path: tm.Path, Nanos: tm.Elapsed.Nanoseconds()})
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// relToCwd shortens absolute diagnostic paths for terminal output.
func relToCwd(path string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(cwd, path)
	if err != nil || len(rel) >= len(path) {
		return path
	}
	return rel
}
