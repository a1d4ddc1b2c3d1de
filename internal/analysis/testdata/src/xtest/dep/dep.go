// Package dep imports the xtest fixture from outside it.
package dep

import "repro/internal/analysis/testdata/src/xtest"

// Seven returns an xtest.T holding 7.
func Seven() *xtest.T { return xtest.New(7) }
