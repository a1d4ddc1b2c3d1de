package netcast

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ReadBatch executes a single-antenna batch plan against the broadcast:
// sim.Session.ReadBatch over this connection, the executor the analytic
// twin runs as sim.Program.QueryBatch. A plan slot that has already aired
// — because an earlier read spilled into later cycles — is served at its
// next airing by the server's catch-up. Lost or corrupt frames are
// re-requested one cycle later under the shared budget, and with Redial
// armed a station crash mid-batch reconnects and re-requests the
// in-flight step. The epoch of the first read is pinned: a read from
// another epoch charges one restart and fails with an error wrapping
// sim.ErrStalePlan, returning the partial metrics, and the caller replans.
// Plans with more than one antenna are rejected: one connection is one
// radio (run one connection per antenna instead).
//
// Like Lookup, a batch is one session: the client detaches when it
// finishes, successfully or not.
func (c *Client) ReadBatch(plan *sim.BatchPlan, pw sim.Power) (sim.Metrics, error) {
	defer c.detach()
	if plan == nil || len(plan.Steps) == 0 {
		return sim.Metrics{}, fmt.Errorf("netcast: %w: no steps", sim.ErrBadPlan)
	}
	if plan.Antennas > 1 {
		return sim.Metrics{}, fmt.Errorf("netcast: %w: %d antennas over one connection (one radio per connection)",
			sim.ErrBadPlan, plan.Antennas)
	}
	c.om.batches.Inc()
	c.om.reg.Emit("batch",
		obs.A("arrival", int64(plan.Arrival)),
		obs.A("keys", int64(len(plan.Steps))),
		obs.A("conflicts", int64(plan.Conflicts)))
	s := c.session()
	m, err := s.ReadBatch(plan, pw, []sim.Medium{s.Medium})
	c.ended(err)
	return m, err
}
