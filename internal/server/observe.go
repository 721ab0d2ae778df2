package server

import (
	"fmt"

	"tebis/internal/lsm"
	"tebis/internal/obs"
	"tebis/internal/vlog"
)

// Observe registers this server's metric families with reg, labeled by
// node name: cycle breakdown (Table 3), compaction stages and writer
// stalls, failure/eviction state, device and network byte counters with
// the derived amplification ratios (Figure 7), per-op latency summaries
// (Figure 8), and live engine gauges (memtable size, value-log
// position, compaction queue depth).
func (s *Server) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	labels := obs.Labels{"node": s.cfg.Name}
	reg.RegisterCycles(labels, s.cfg.Cycles)
	reg.RegisterCompaction(labels, s.cfg.LSM.CompactionStats)
	reg.RegisterFailure(labels, s.cfg.Failures)
	reg.RegisterScrub(labels, s.cfg.Scrub)
	reg.RegisterShip(labels, s.cfg.Ship)
	reg.RegisterDevice(labels, s.cfg.Device)
	reg.RegisterEndpoint(labels, s.cfg.Endpoint)
	for _, op := range opKinds {
		reg.RegisterOpLatency(labels, op, s.opLat[op])
	}
	reg.RegisterLag(labels, s.cfg.Lag)
	// The event journal may be shared cluster-wide (cluster.Config.Events),
	// so like the stage set it registers unlabeled: Event.Node carries the
	// attribution and co-registered servers dedupe onto one counter family.
	reg.RegisterEvents(nil, s.cfg.Events)
	// Like the span ring, the stage set may be shared cluster-wide
	// (cluster.Config.Stages), so it registers unlabeled: stage and
	// tenant labels carry the attribution and co-registered servers
	// dedupe onto one family set.
	reg.RegisterStages(nil, s.cfg.Stages)
	s.ctrl.Register(reg, labels)
	// The span ring is shared by every node view, so its occupancy and
	// drop counters register unlabeled: all servers dedupe onto one
	// ring-global series.
	reg.RegisterTracer(nil, s.trace)

	dataset := func() float64 { return float64(s.dataset.Load()) }
	reg.RegisterAmplification(labels,
		func() float64 {
			st := s.cfg.Device.Stats()
			return float64(st.BytesRead + st.BytesWritten)
		},
		func() float64 {
			return float64(s.cfg.Endpoint.TxBytes() + s.cfg.Endpoint.RxBytes())
		},
		dataset)

	reg.GaugeFunc("tebis_memtable_bytes",
		"Byte footprint of the active L0 memtables across hosted regions.",
		labels, func() float64 {
			var total int64
			for _, db := range s.hostedDBs() {
				total += db.MemtableBytes()
			}
			return float64(total)
		})
	reg.GaugeFunc("tebis_vlog_bytes",
		"Value-log write position across hosted regions.",
		labels, func() float64 {
			var total float64
			for _, db := range s.hostedDBs() {
				total += float64(db.Log().Position())
			}
			return total
		})
	// Value-log space accounting and GC counters (DESIGN.md "Value-log GC").
	// Registered even with GC disabled so reclaimable space is visible
	// before it is turned on. Hosted engines share one device, so
	// segment IDs are node-unique and the per-segment children merge.
	reg.RegisterVlogSpace(labels, func() vlog.SpaceReport {
		var rep vlog.SpaceReport
		for _, db := range s.hostedDBs() {
			r := db.Log().SpaceReport()
			rep.Live += r.Live
			rep.Dead += r.Dead
			rep.Trimmed += r.Trimmed
			rep.Segments = append(rep.Segments, r.Segments...)
		}
		return rep
	})
	reg.RegisterGC(labels, s.cfg.GC.Stats)
	// Per-region families are dynamic: children appear when the master
	// splits a region or migrates one here, so the whole family is
	// re-enumerated from the hosted-region table at scrape time.
	reg.FamilyFunc("tebis_region_ops_total",
		"Operations served per hosted region, by kind.",
		"counter", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for id, l := range s.RegionLoads() {
				out[fmt.Sprintf(`kind="read",region="%d"`, id)] = float64(l.Reads)
				out[fmt.Sprintf(`kind="scan",region="%d"`, id)] = float64(l.Scans)
				out[fmt.Sprintf(`kind="write",region="%d"`, id)] = float64(l.Writes)
			}
			return out
		})
	reg.FamilyFunc("tebis_region_bytes_total",
		"Request payload bytes absorbed per hosted region.",
		"counter", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for id, l := range s.RegionLoads() {
				out[fmt.Sprintf(`region="%d"`, id)] = float64(l.Bytes)
			}
			return out
		})
	reg.FamilyFunc("tebis_region_epoch",
		"Current epoch of every hosted region; a jump marks a split, merge, or migration.",
		"gauge", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for id, e := range s.regionEpochs() {
				out[fmt.Sprintf(`region="%d"`, id)] = float64(e)
			}
			return out
		})
	reg.FamilyFunc("tebis_region_op_latency_seconds",
		"Per-region service latency quantiles over the region's lifetime.",
		"gauge", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for id, st := range s.servingStats() {
				for _, q := range obs.SummaryQuantiles {
					out[fmt.Sprintf(`quantile="%s",region="%d"`, q.Label, id)] =
						st.lat.Percentile(q.Percentile).Seconds()
				}
			}
			return out
		})

	reg.GaugeFunc("tebis_compaction_queue_depth",
		"Frozen L0 tables waiting plus compaction jobs in flight.",
		labels, func() float64 {
			var total int
			for _, db := range s.hostedDBs() {
				frozen, inflight := db.QueueDepth()
				total += frozen + inflight
			}
			return float64(total)
		})
}

// hostedDBs snapshots every live engine on this server — hosted
// primaries plus Build-Index backup engines.
func (s *Server) hostedDBs() []*lsm.DB {
	s.mu.Lock()
	defer s.mu.Unlock()
	dbs := make([]*lsm.DB, 0, len(s.regions))
	for _, hr := range s.regions {
		if hr.db != nil {
			dbs = append(dbs, hr.db)
		}
		if hr.backup != nil && hr.backup.DB() != nil {
			dbs = append(dbs, hr.backup.DB())
		}
	}
	return dbs
}
