package netcast

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// LookupRange retrieves every item with a key in [lo, hi] through the
// socket protocol: sim.Session.LookupRange over this connection, the
// frontier scan the analytic twin runs as sim.Timeline.QueryRangeSwitch.
// A slot that has already passed (because the single receiver was
// reading a different channel) is caught on a later cycle by the
// server's cyclic catch-up; a lost or corrupt frontier read is
// re-scheduled one cycle later. A newer epoch stamp or a station crash
// (with Redial armed) mid-scan discards the partial key set and re-scans.
// Range scans never fail over. Like Lookup, a range scan is one session:
// it detaches when done.
func (c *Client) LookupRange(arrival int, lo, hi int64, pw sim.Power) (keys []int64, m sim.Metrics, err error) {
	defer c.detach()
	c.om.lookups.Inc()
	c.om.reg.Emit("tune", obs.A("arrival", int64(arrival)), obs.A("lo", lo), obs.A("hi", hi))
	keys, m, err = c.session().LookupRange(arrival, lo, hi, pw)
	c.ended(err)
	return keys, m, err
}
