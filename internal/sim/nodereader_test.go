package sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/tree"
)

// nodeReader is an independent by-node reader, the oracle
// TestQueryMatchesNodeReader holds Query and QueryFaulty to. It probes the
// root channel, then chases the first child pointer whose target is the
// query's target or one of its ancestors (tree.IsAncestor) instead of
// routing by key ranges, and it honors only Model and MaxRetries.
type nodeReader struct {
	p  *Program
	fc FaultConfig
	m  Metrics
}

// nodeReaderQuery is QueryFaulty on the node reader. found is false when
// the descent stopped at a bucket without a pointer toward target, which
// the node reader returns as a success.
func nodeReaderQuery(p *Program, arrival int, target tree.ID, pw Power, fc FaultConfig) (m Metrics, found bool, err error) {
	if arrival < 0 {
		return Metrics{}, false, fmt.Errorf("sim: negative arrival %d", arrival)
	}
	if !p.t.IsData(target) {
		return Metrics{}, false, fmt.Errorf("sim: target %s is not a data node", p.t.Label(target))
	}
	r := &nodeReader{p: p, fc: fc}
	now, b, err := r.probe(arrival)
	if err != nil {
		return Metrics{}, false, err
	}
	end, found, err := r.descend(now, b, target)
	if err != nil {
		return Metrics{}, false, err
	}
	r.m.DataWait = end - now + 1
	r.m.finish(pw)
	return r.m, found, nil
}

// readAt reads the bucket on ch at the absolute slot; a lost or corrupt
// read charges a retry and re-reads the same cycle slot a cycle later.
func (r *nodeReader) readAt(ch, slot int) (int, Bucket, error) {
	p := r.p
	for {
		r.m.TuningTime++
		switch r.fc.Model.At(ch, slot) {
		case fault.OK, fault.Stall:
			return slot, p.buckets[ch-1][p.slotInCycle(slot)-1], nil
		default:
			if err := r.m.charge(Retry, r.fc.budget(), ch, slot); err != nil {
				return 0, Bucket{}, err
			}
			slot += p.cycleLen
		}
	}
}

// probe reads the root channel at arrival and, unless that bucket is the
// root or a root copy, the root at the next cycle start.
func (r *nodeReader) probe(arrival int) (int, Bucket, error) {
	p := r.p
	rc := p.RootChannel()
	now, b, err := r.readAt(rc, arrival)
	if err != nil {
		return 0, Bucket{}, err
	}
	if !(b.RootCopy || (b.Node != tree.None && b.Node == p.t.Root())) {
		if now, b, err = r.readAt(rc, now+b.NextCycle); err != nil {
			return 0, Bucket{}, err
		}
		if !(b.RootCopy || b.Node == p.t.Root()) {
			return 0, Bucket{}, fmt.Errorf("%w (got %v)", ErrMissingRoot, b.Node)
		}
	}
	r.m.ProbeWait = now - arrival
	return now, b, nil
}

// descend follows pointers toward target from bucket b, read at slot now,
// and returns the slot of the last bucket read.
func (r *nodeReader) descend(now int, b Bucket, target tree.ID) (int, bool, error) {
	p := r.p
	for hop := 0; hop <= p.t.NumNodes()+1; hop++ {
		if b.Node == target {
			return now, true, nil
		}
		var ptr *Pointer
		for i := range b.Children {
			if c := b.Children[i].Target; c == target || p.t.IsAncestor(c, target) {
				ptr = &b.Children[i]
				break
			}
		}
		if ptr == nil {
			return now, false, nil
		}
		next := ptr.Target
		var got Bucket
		var err error
		if now, got, err = r.readAt(ptr.Channel, now+ptr.Offset); err != nil {
			return 0, false, err
		}
		if got.Node != next {
			return 0, false, fmt.Errorf("%w: pointer to %s found %v at channel %d slot %d",
				ErrBrokenPointer, p.t.Label(next), got.Node, ptr.Channel, p.slotInCycle(now))
		}
		b = got
	}
	return 0, false, fmt.Errorf("sim: descent did not terminate")
}

// sameOutcome reports whether a Session-run by-node query agrees with the
// node reader: equal Metrics, and errors that match by errors.Is. The one
// documented divergence is a descent that ends without its target, which
// the node reader returned as a success and Query fails with
// ErrBrokenPointer.
func sameOutcome(got Metrics, gotErr error, want Metrics, found bool, wantErr error) error {
	if wantErr == nil && !found {
		if !errors.Is(gotErr, ErrBrokenPointer) {
			return fmt.Errorf("missing pointer: got %+v, %v; want ErrBrokenPointer", got, gotErr)
		}
		return nil
	}
	for _, sentinel := range []error{ErrMissingRoot, ErrBrokenPointer, fault.ErrRetryBudget} {
		if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
			return fmt.Errorf("error %v, node reader %v", gotErr, wantErr)
		}
	}
	if (gotErr == nil) != (wantErr == nil) || got != want {
		return fmt.Errorf("got %+v, %v; node reader %+v, %v", got, gotErr, want, wantErr)
	}
	return nil
}

// TestQueryMatchesNodeReader: on keyed and unkeyed trees, with and
// without root copies and on remapped layouts, Query and QueryFaulty
// return exactly what the node reader returns, on a perfect medium, a
// stall-only one and three lossy fault models. A program missing a
// pointer exercises the one divergence.
func TestQueryMatchesNodeReader(t *testing.T) {
	envs := []FaultConfig{
		{},
		{Model: fault.Model{Seed: 21, Stall: 0.3}},
		{Model: fault.Model{Seed: 22, Drop: 0.1}},
		{Model: fault.Model{Seed: 23, Corrupt: 0.2}, MaxRetries: 2},
		{Model: fault.Model{Seed: 24, Drop: 0.15, Corrupt: 0.1, Stall: 0.1}, MaxRetries: 4},
	}
	progs := append(differentialPrograms(t), namedProgram{"missing-pointer", missingPointerProgram(t)})
	var queries, budget, lost int
	for _, np := range progs {
		p := np.p
		for _, d := range p.t.DataIDs() {
			for a := 0; a < p.cycleLen; a++ {
				for i, fc := range envs {
					want, found, wantErr := nodeReaderQuery(p, a, d, testPower, fc)
					got, err := p.QueryFaulty(a, d, testPower, fc)
					if i == 0 {
						if m, qerr := p.Query(a, d, testPower); m != got || (qerr == nil) != (err == nil) {
							t.Fatalf("%s: Query(%d, %s) = %+v, %v; QueryFaulty %+v, %v", np.name, a, p.t.Label(d), m, qerr, got, err)
						}
					}
					if e := sameOutcome(got, err, want, found, wantErr); e != nil {
						t.Fatalf("%s: env %d: QueryFaulty(%d, %s): %v", np.name, i, a, p.t.Label(d), e)
					}
					queries++
					if errors.Is(wantErr, fault.ErrRetryBudget) {
						budget++
					}
					if wantErr == nil && !found {
						lost++
					}
				}
			}
		}
	}
	if budget == 0 || lost == 0 {
		t.Fatalf("%d queries out of budget, %d missing a pointer; want some of each", budget, lost)
	}
	t.Logf("%d queries, %d out of budget, %d missing a pointer", queries, budget, lost)
}
