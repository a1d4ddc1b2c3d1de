package xtest_test

import (
	"repro/internal/analysis/testdata/src/xtest"
	"repro/internal/analysis/testdata/src/xtest/dep"
)

// sum reads both values through the method export_test.go declares; the
// one dep.Seven returns must have the same type as xtest.New's.
func sum() int {
	var a, b *xtest.T = xtest.New(1), dep.Seven()
	return a.N() + b.N()
}

var _ = sum
