// Package analysis implements bcast-vet, the repo's static-analysis
// gate. It is a minimal go/analysis-style framework — golang.org/x/tools
// is not vendored, and the toolchain's go/ast + go/types are enough for
// what we check — plus the seven analyzers that encode the repo's
// invariants:
//
//   - determinism: no wall clock, no global math/rand, no map-ordered
//     output inside the replay-critical packages (sim, fault,
//     experiment, topo, datatree, core, obs, retrieval).
//   - pooledreturn: values taken from the search free lists
//     (repro/internal/pool, sync.Pool) are either put back or handed
//     off, and never used after Put on any path (CFG-based).
//   - goroutinelifecycle: every goroutine launched by the serving
//     packages (netcast, epoch, broadcast) is cancellable via a
//     context.Context, joined via a sync.WaitGroup whose Add dominates
//     the go statement, or explicitly declared detached with a
//     //bcast:detached directive.
//   - errsentinel: sentinel errors are tested with errors.Is, never
//     with == / != or string matching, and fmt.Errorf wraps them with
//     %w.
//   - lockdiscipline: no blocking operation (channel ops, net.Conn
//     I/O, time.Sleep, Wait, blocking registry calls) on any path
//     where a sync.Mutex/RWMutex is held (CFG-based).
//   - obsregistry: obs metric/trace names are compile-time constants,
//     each registered at exactly one site per package, and the obs
//     handle types keep their nil-receiver no-op guards (CFG-based).
//   - budgetflow: only (*Metrics).charge, which tests the shared
//     budget, writes a recovery counter in sim, netcast and fault.
//
// The CFG/dataflow engine underneath the flow-sensitive analyzers lives
// in cfg.go and dataflow.go: basic blocks built from go/ast, a generic
// forward worklist solver, dominators, and per-function caching on the
// Unit.
//
// Diagnostics are suppressed per line with
//
//	//nolint:bcast-<name> // <reason>
//
// where the reason is mandatory: a bare directive, or one whose reason
// carries no letters or digits, is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named check. Run inspects the Pass and reports
// findings through Pass.Reportf.
type Analyzer struct {
	// Name is the short name: diagnostics print as [bcast-<Name>] and
	// the matching suppression directive is //nolint:bcast-<Name>.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check on one package unit.
	Run func(*Pass)
}

// Pass is one (analyzer, package unit) execution. A unit is either a
// package together with its in-package test files, or a package's
// external _test package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the unit's import path (external test units carry the
	// conventional ".test" suffix added by the loader).
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	unit  *Unit // CFG cache host; nil only in direct construction
	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether f is a _test.go file. Analyzers that guard
// production-only invariants (determinism, goroutine lifecycle) skip
// test files: tests time things and spawn bounded goroutines
// legitimately.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [bcast-%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, PooledReturn, GoroutineLifecycle, ErrSentinel, LockDiscipline, ObsRegistry, BudgetFlow}
}

// Timing records how long one analyzer spent on one unit.
type Timing struct {
	Analyzer string
	Path     string
	Elapsed  time.Duration
}

// RunAnalyzers applies every analyzer to every unit, resolves nolint
// suppressions, and returns the surviving diagnostics sorted by
// position. Directives missing their mandatory reason are reported as
// diagnostics of the pseudo-analyzer "nolint".
func RunAnalyzers(units []*Unit, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunAnalyzersTimed(units, analyzers)
	return diags
}

// RunAnalyzersTimed is RunAnalyzers plus a per-(analyzer, unit) wall
// time breakdown, in execution order. Driving the gate from the
// timings (cmd/bcast-vet -timebudget) turns an accidentally
// super-linear CFG pass into a failed check instead of a slow one.
func RunAnalyzersTimed(units []*Unit, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	var out []Diagnostic
	var timings []Timing
	for _, u := range units {
		dirs := collectNolint(u)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     u.Fset,
				Path:     u.Path,
				Files:    u.Files,
				Pkg:      u.Pkg,
				Info:     u.Info,
				unit:     u,
			}
			start := time.Now()
			a.Run(pass)
			timings = append(timings, Timing{Analyzer: a.Name, Path: u.Path, Elapsed: time.Since(start)})
			for _, d := range pass.diags {
				if !dirs.suppresses(a.Name, d.Pos) {
					out = append(out, d)
				}
			}
		}
		out = append(out, dirs.reasonless()...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, timings
}
