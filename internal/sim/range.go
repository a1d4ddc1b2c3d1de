package sim

// RangeResult is the outcome of a range query.
type RangeResult struct {
	Metrics Metrics
	// Keys holds the retrieved keys in retrieval order.
	Keys []int64
}

// QueryRange retrieves every data item with a key in [lo, hi] (inclusive)
// from a keyed broadcast, supporting the [TY98]-style range workloads.
// The client maintains a frontier of index pointers whose subtrees
// intersect the range and visits them in arrival order; when two needed
// buckets are broadcast in the same slot on different channels, the later
// one is deferred a full cycle (a single-receiver client can only listen
// to one channel per slot). It is Session.LookupRange on a perfect
// medium; run Timeline.QueryRangeSwitch on NewTimeline(p, 0) for any
// other environment.
func (p *Program) QueryRange(arrival int, lo, hi int64, pw Power) (RangeResult, error) {
	w := twins.Get().(*twin)
	defer twins.Put(w)
	if err := w.open(w.a.tune(p), FaultConfig{}, false); err != nil {
		return RangeResult{}, err
	}
	return w.scan(arrival, lo, hi, pw)
}
