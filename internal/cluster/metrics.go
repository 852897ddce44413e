package cluster

import (
	"strconv"

	"repro/internal/obs"
)

// Instrument registers pull-based health metrics on reg: per-node breaker
// state and spill-queue depth gauges plus spilled/replayed/rejected counters,
// all read from the live nodeHealth state at collection time (no hot-path
// cost).
func (c *Cluster) Instrument(reg *obs.Registry) {
	for i := range c.nodes {
		h := c.health[i]
		node := strconv.Itoa(i)
		reg.GaugeFunc(obs.Label("aim_cluster_breaker_state", "target", node),
			"Circuit-breaker state of the storage server: 0 closed, 1 open, 2 half-open.",
			func() float64 {
				s := h.snapshot()
				return float64(s.State)
			})
		reg.GaugeFunc(obs.Label("aim_cluster_spill_queue", "target", node),
			"Fire-and-forget events queued for replay while the server is down.",
			func() float64 { return float64(h.queued()) })
		reg.CounterFunc(obs.Label("aim_cluster_events_spilled_total", "target", node),
			"Events ever diverted to the spill queue.",
			func() float64 {
				s := h.snapshot()
				return float64(s.Spilled)
			})
		reg.CounterFunc(obs.Label("aim_cluster_events_replayed_total", "target", node),
			"Spilled events successfully delivered by the drainer.",
			func() float64 {
				s := h.snapshot()
				return float64(s.Replayed)
			})
		reg.CounterFunc(obs.Label("aim_cluster_events_rejected_total", "target", node),
			"Events refused with a typed overload error because the spill queue was full.",
			func() float64 {
				s := h.snapshot()
				return float64(s.Rejected)
			})
		shard := i
		reg.GaugeFunc(obs.Label("aim_cluster_followers", "target", node),
			"Follower replicas currently attached to the shard.",
			func() float64 {
				c.repMu.Lock()
				defer c.repMu.Unlock()
				return float64(len(c.followers[shard]))
			})
	}
	reg.CounterFunc("aim_cluster_promotions_total",
		"Followers promoted to primary (automatic and manual failovers).",
		func() float64 { return float64(c.promotions.Load()) })
	reg.CounterFunc("aim_cluster_replica_scans_total",
		"Shard scans routed to follower replicas instead of primaries.",
		func() float64 { return float64(c.replicaScans.Load()) })
	reg.CounterFunc("aim_cluster_stale_replica_scans_total",
		"Replica-routed scans served with the freshness bound waived because the primary breaker was open.",
		func() float64 { return float64(c.staleScans.Load()) })
}
