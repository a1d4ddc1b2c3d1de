package xtest

// N exposes t's field to the external test package.
func (t *T) N() int { return t.n }
