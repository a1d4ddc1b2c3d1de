package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one type-checked body of syntax an analyzer runs over: a
// package (plus its in-package test files), or a package's external
// _test package.
type Unit struct {
	Path  string // import path; external test units get a ".test" suffix
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// cfgs caches one control-flow graph per function body, shared by
	// every CFG-based analyzer that visits the unit (see Pass.CFGOf).
	cfgs map[*ast.BlockStmt]*CFG
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard toolchain: module-local imports resolve against the
// module tree, everything else through the compiler's source importer
// (the module has no external dependencies, so "everything else" is the
// standard library).
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	std     types.Importer
	bases   map[string]*types.Package // import-resolution cache, base files only
	loading map[string]bool           // cycle guard
}

// NewLoader reads go.mod under modRoot and prepares a loader.
func NewLoader(modRoot string) (*Loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %s is not a module root: %w", abs, err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", abs)
	}
	// The source importer resolves the standard library through
	// go/build; with cgo disabled every stdlib package (net included)
	// has a pure-Go variant, so loading works offline and untethered
	// from the build cache.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: abs,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		bases:   map[string]*types.Package{},
		loading: map[string]bool{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// Import resolves an import path for the type checker: module-local
// paths from source under the module root, the rest through the
// standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.local(path) {
		return l.loadBase(path)
	}
	return l.std.Import(path)
}

// local reports whether path names a package of the module.
func (l *Loader) local(path string) bool {
	return path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/")
}

// dir returns the directory of the module-local package path.
func (l *Loader) dir(path string) string {
	return filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")))
}

// loadBase type-checks the non-test files of a module-local package,
// memoized; it is what other packages see when they import it.
func (l *Loader) loadBase(path string) (*types.Package, error) {
	if pkg, ok := l.bases[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dir(path)
	base, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg, _, err := l.check(path, base, importerFunc(l.Import))
	if err != nil {
		return nil, err
	}
	l.bases[path] = pkg
	return pkg, nil
}

// parseDir parses every .go file of dir, split into base files,
// in-package test files, and external (package foo_test) test files.
func (l *Loader) parseDir(dir string) (base, tests, xtests []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "_") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		switch {
		case !strings.HasSuffix(n, "_test.go"):
			base = append(base, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtests = append(xtests, f)
		default:
			tests = append(tests, f)
		}
	}
	return base, tests, xtests, nil
}

// check type-checks one set of files as a package, resolving its imports
// through imp.
func (l *Loader) check(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, errs[0])
	}
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// LoadDir builds the analyzer units for one package directory: the
// package together with its in-package tests, plus the external test
// package when present. importPath is the path the unit is checked
// under (fixtures declare synthetic paths to opt in to path-scoped
// analyzers). As under go test, the external test package sees the
// package with its in-package test files, so it may use what an
// export_test.go declares.
func (l *Loader) LoadDir(dir, importPath string) ([]*Unit, error) {
	base, tests, xtests, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var units []*Unit
	imp := types.Importer(importerFunc(l.Import))
	if len(base)+len(tests) > 0 {
		files := append(append([]*ast.File{}, base...), tests...)
		pkg, info, err := l.check(importPath, files, imp)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{Path: importPath, Dir: dir, Fset: l.Fset, Files: files, Pkg: pkg, Info: info})
		imp = l.testImporter(pkg)
	}
	if len(xtests) > 0 {
		pkg, info, err := l.check(importPath+".test", xtests, imp)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{Path: importPath + ".test", Dir: dir, Fset: l.Fset, Files: xtests, Pkg: pkg, Info: info})
	}
	return units, nil
}

// testImporter resolves an external test package's imports as go test
// does: under's own path gives under, the package checked with its
// in-package test files, and every module-local package that imports
// under, directly or not, is checked again against it, so the test sees
// one version of each of under's types.
func (l *Loader) testImporter(under *types.Package) types.Importer {
	over := map[string]*types.Package{under.Path(): under}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg, ok := over[path]; ok {
			return pkg, nil
		}
		pkg, err := l.Import(path)
		if err != nil || !l.local(path) || !imports(pkg, under.Path(), map[*types.Package]bool{}) {
			return pkg, err
		}
		base, _, _, err := l.parseDir(l.dir(path))
		if err != nil {
			return nil, err
		}
		if pkg, _, err = l.check(path, base, imp); err != nil {
			return nil, err
		}
		over[path] = pkg
		return pkg, nil
	}
	return imp
}

// imports reports whether pkg imports path, directly or not.
func imports(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	for _, dep := range pkg.Imports() {
		if dep.Path() == path {
			return true
		}
		if !seen[dep] {
			seen[dep] = true
			if imports(dep, path, seen) {
				return true
			}
		}
	}
	return false
}

// PackageDirs returns every package directory of the module, relative
// to the module root, in lexical order. Hidden directories, testdata
// trees, and nested modules are skipped, mirroring the go tool.
func (l *Loader) PackageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModRoot {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module (e.g. tools/)
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
				rel, err := filepath.Rel(l.ModRoot, path)
				if err != nil {
					return err
				}
				dirs = append(dirs, filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// Load resolves go-tool-style patterns ("./...", "./internal/topo",
// "internal/topo/...") against the module and returns the units of
// every matched package.
func (l *Loader) Load(patterns []string) ([]*Unit, error) {
	dirs, err := l.PackageDirs()
	if err != nil {
		return nil, err
	}
	used := make([]bool, len(patterns))
	match := func(rel string) bool {
		hit := false
		for i, pat := range patterns {
			pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
			if pat == "..." || pat == "" {
				used[i], hit = true, true
				continue
			}
			if sub, ok := strings.CutSuffix(pat, "/..."); ok {
				if rel == sub || strings.HasPrefix(rel, sub+"/") {
					used[i], hit = true, true
				}
			} else if rel == pat {
				used[i], hit = true, true
			}
		}
		return hit
	}
	var units []*Unit
	for _, rel := range dirs {
		if !match(rel) {
			continue
		}
		importPath := l.ModPath
		if rel != "." {
			importPath = l.ModPath + "/" + rel
		}
		us, err := l.LoadDir(filepath.Join(l.ModRoot, filepath.FromSlash(rel)), importPath)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	// A pattern that matched nothing is a mistake, not a clean run —
	// testdata trees and nested modules are deliberately unreachable.
	for i, u := range used {
		if !u {
			return nil, fmt.Errorf("analysis: pattern %q matched no packages", patterns[i])
		}
	}
	return units, nil
}

// Vet is the multichecker entry point: load every package matched by
// patterns under modRoot and run the analyzers over them.
func Vet(modRoot string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := VetTimed(modRoot, patterns, analyzers)
	return diags, err
}

// VetTimed is Vet plus the per-(analyzer, unit) timing breakdown that
// cmd/bcast-vet surfaces through -json and gates through -timebudget.
func VetTimed(modRoot string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, []Timing, error) {
	l, err := NewLoader(modRoot)
	if err != nil {
		return nil, nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	units, err := l.Load(patterns)
	if err != nil {
		return nil, nil, err
	}
	diags, timings := RunAnalyzersTimed(units, analyzers)
	return diags, timings, nil
}
