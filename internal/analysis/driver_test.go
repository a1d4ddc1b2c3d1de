package analysis

import (
	"go/types"
	"testing"
)

// TestRepoComesUpClean is the acceptance gate in test form: the whole
// module — test files included — must pass every analyzer. It doubles
// as an end-to-end exercise of the loader (module-local resolution plus
// the stdlib source importer).
func TestRepoComesUpClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Vet(root, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestLoaderEnumeratesModulePackages(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.PackageDirs()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range dirs {
		seen[d] = true
	}
	for _, want := range []string{".", "internal/topo", "internal/analysis", "cmd/bcast-vet", "broadcast"} {
		if !seen[want] {
			t.Errorf("PackageDirs missing %q (got %v)", want, dirs)
		}
	}
	if seen["internal/analysis/testdata"] || seen["internal/analysis/testdata/src/determinism/bad"] {
		t.Error("PackageDirs must skip testdata trees")
	}
}

func TestLoadPatternFiltering(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	units, err := l.Load([]string{"./internal/pool"})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("no units for ./internal/pool")
	}
	for _, u := range units {
		if u.Path != "repro/internal/pool" {
			t.Errorf("unexpected unit %s", u.Path)
		}
	}
}

// TestLoadDirXTestSeesExportTest loads a package whose external test
// package calls a method declared in export_test.go, on values from the
// package itself and from a package that imports it. As under go test,
// both must type-check against the package with its in-package test
// files.
func TestLoadDirXTestSeesExportTest(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	const path = "repro/internal/analysis/testdata/src/xtest"
	units, err := l.LoadDir("testdata/src/xtest", path)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 || units[1].Path != path+".test" {
		t.Fatalf("want the package and its external test package, got %d units", len(units))
	}
	for _, imp := range units[1].Pkg.Imports() {
		if imp.Path() != path {
			continue
		}
		if obj, _, _ := types.LookupFieldOrMethod(imp.Scope().Lookup("T").Type(), true, nil, "N"); obj == nil {
			t.Error("the external test package's xtest.T has no method N")
		}
		return
	}
	t.Error("the external test package does not import xtest")
}
