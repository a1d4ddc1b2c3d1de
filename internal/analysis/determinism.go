package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterministicPaths are the package sub-paths whose output must replay
// byte-identically from a seed (the fault model, the epoch-swap twins,
// and the experiment harness all pin cross-checks on this).
// internal/obs is held to the same bar because instrumented code calls
// it from inside those replay loops: a wall-clock read or map-ordered
// snapshot there would leak nondeterminism into every instrumented
// cross-check.
var DeterministicPaths = []string{
	"internal/sim",
	"internal/fault",
	"internal/experiment",
	"internal/bestfirst",
	"internal/topo",
	"internal/datatree",
	"internal/core",
	"internal/obs",
	"internal/retrieval",
}

// Determinism forbids the three ways nondeterminism has crept into
// broadcast-schedule reproductions: wall-clock reads, the global
// math/rand source, and map iteration feeding order-sensitive output.
// Test files are exempt — timing a test is fine; the invariant guards
// production replay paths.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/Since/Until, global math/rand, and map-ordered output in replay-critical packages; " +
		"explicitly seeded sources (rand.New(rand.NewSource(seed))) are allowed",
	Run: runDeterminism,
}

// seededConstructors are the math/rand entry points that build an
// explicitly seeded source rather than consuming the global one.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	if !pathMatches(pass.Path, DeterministicPaths) {
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkDeterminismFunc(pass, fd)
				continue
			}
			// Package-level initializers can reach the clock too.
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					reportBannedCall(pass, call)
				}
				return true
			})
		}
	}
}

func checkDeterminismFunc(pass *Pass, fd *ast.FuncDecl) {
	var mapRanges []*ast.RangeStmt
	sorted := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			reportBannedCall(pass, n)
			// Record slices handed to a sorting routine: appending map
			// keys and sorting them is the sanctioned iteration idiom.
			if f := calleeFunc(pass.Info, n); f != nil {
				pkg := funcPkgPath(f)
				if pkg == "sort" || pkg == "slices" || strings.HasPrefix(strings.ToLower(f.Name()), "sort") {
					for _, arg := range n.Args {
						if id := rootIdent(arg); id != nil {
							if obj := pass.Info.Uses[id]; obj != nil {
								sorted[obj] = true
							}
						}
					}
				}
			}
		case *ast.RangeStmt:
			if _, ok := pass.Info.Types[n.X].Type.Underlying().(*types.Map); ok {
				mapRanges = append(mapRanges, n)
			}
		}
		return true
	})
	for _, r := range mapRanges {
		checkMapRange(pass, r, sorted)
	}
}

func reportBannedCall(pass *Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.Info, call)
	if f == nil {
		return
	}
	switch funcPkgPath(f) {
	case "time":
		switch f.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "time.%s in a deterministic package breaks byte-identical replay; thread a seeded clock through the config", f.Name())
		}
	case "math/rand", "math/rand/v2":
		sig, ok := f.Type().(*types.Signature)
		if ok && sig.Recv() == nil && !seededConstructors[f.Name()] {
			pass.Reportf(call.Pos(), "global math/rand.%s draws from unseeded shared state; use a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", f.Name())
		}
	}
}

// checkMapRange reports map iterations whose body feeds order-sensitive
// sinks: formatted output, text buffers, channel sends, or appends to a
// slice that is never handed to a sort routine.
func checkMapRange(pass *Pass, r *ast.RangeStmt, sorted map[types.Object]bool) {
	ast.Inspect(r.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "map iteration order leaks into a channel send; iterate a sorted key slice instead")
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(n.Args) > 0 {
					if dst := rootIdent(n.Args[0]); dst != nil {
						if obj := pass.Info.Uses[dst]; obj != nil && !sorted[obj] {
							pass.Reportf(n.Pos(), "map iteration appends to %s in map order and %s is never sorted; sort it (or the keys) before use", dst.Name, dst.Name)
						}
					}
				}
				return true
			}
			f := calleeFunc(pass.Info, n)
			if f == nil {
				return true
			}
			name := f.Name()
			if funcPkgPath(f) == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Sprint") || strings.HasPrefix(name, "Append")) {
				pass.Reportf(n.Pos(), "map iteration order leaks into fmt.%s output; iterate a sorted key slice instead", name)
				return true
			}
			if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil && strings.HasPrefix(name, "Write") {
				rt := sig.Recv().Type()
				if typeIs(rt, "strings", "Builder") || typeIs(rt, "bytes", "Buffer") {
					pass.Reportf(n.Pos(), "map iteration order leaks into a %s; iterate a sorted key slice instead", types.TypeString(rt, nil))
				}
			}
		}
		return true
	})
}
