// Package xtest is a loader fixture: its external test package uses a
// method that only export_test.go declares, on a value built by a package
// that imports xtest.
package xtest

// T has an unexported field that only test code reads.
type T struct{ n int }

// New returns a T holding n.
func New(n int) *T { return &T{n: n} }
