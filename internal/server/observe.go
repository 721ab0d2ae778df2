package server

import (
	"fmt"

	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/region"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// Observe registers everything this server counts with reg, labeled by
// node name: its own families (Collect) and the stats sinks it feeds.
// The stage set, the event journal and the span ring may be shared
// cluster-wide (cluster.Config), so they register unlabeled — their own
// stage, tenant, type and Event.Node fields carry the attribution — and
// co-registered servers dedupe onto one registration.
func (s *Server) Observe(reg *obs.Registry) {
	labels := obs.Labels{"node": s.cfg.Name}
	for _, src := range []metrics.Source{
		s, s.cfg.Cycles, s.cfg.LSM.CompactionStats, s.cfg.Failures, s.cfg.Scrub,
		s.cfg.Ship, s.cfg.GC.Stats, s.cfg.Lag, s.ctrl, storage.NodeCacheOf(s.cfg.Device),
	} {
		reg.Register(labels, src)
	}
	for _, k := range opKinds {
		reg.Register(obs.Labels{"node": s.cfg.Name, "op": k.name}, s.opLat[k.op])
	}
	reg.Register(nil, s.cfg.Stages)
	reg.Register(nil, s.cfg.Events)
	reg.Register(nil, s.cfg.Trace)
}

// Collect implements metrics.Source with the families the server itself
// owns, all from one pass over the hosted-region table and one read of
// each byte counter: device and network bytes with the amplification
// ratios derived from them (Figure 7), live engine gauges (memtable
// size, value-log position and space, compaction queue depth), the
// engines' point-lookup level counts, and the
// per-region families, whose children appear when the master splits a
// region or migrates one here.
func (s *Server) Collect() []metrics.Family {
	type hosted struct {
		id    region.ID
		epoch uint32
		stats *regionStats // nil unless this server serves the region's ops
	}
	s.mu.Lock()
	regions := make([]hosted, 0, len(s.regions))
	var dbs []*lsm.DB // hosted primaries plus Build-Index backup engines
	for id, hr := range s.regions {
		h := hosted{id: id, epoch: hr.info.Epoch}
		if hr.db != nil || hr.isAlias {
			h.stats = hr.stats
		}
		regions = append(regions, h)
		if hr.db != nil {
			dbs = append(dbs, hr.db)
		}
		if hr.backup != nil && hr.backup.DB() != nil {
			dbs = append(dbs, hr.backup.DB())
		}
	}
	s.mu.Unlock()

	ops := metrics.Counter("tebis_region_ops_total",
		"Operations served per hosted region, by kind.")
	bytes := metrics.Counter("tebis_region_bytes_total",
		"Request payload bytes absorbed per hosted region.")
	epoch := metrics.Gauge("tebis_region_epoch",
		"Current epoch of every hosted region; a jump marks a split, merge, or migration.")
	latency := metrics.Gauge("tebis_region_op_latency_seconds",
		"Per-region service latency quantiles over the region's lifetime.")
	for _, h := range regions {
		epoch.Add(fmt.Sprintf(`region="%d"`, h.id), float64(h.epoch))
		if h.stats == nil {
			continue
		}
		l := h.stats.load()
		ops.Add(fmt.Sprintf(`kind="read",region="%d"`, h.id), float64(l.Reads))
		ops.Add(fmt.Sprintf(`kind="scan",region="%d"`, h.id), float64(l.Scans))
		ops.Add(fmt.Sprintf(`kind="write",region="%d"`, h.id), float64(l.Writes))
		bytes.Add(fmt.Sprintf(`region="%d"`, h.id), float64(l.Bytes))
		_, ps := h.stats.lat.Summarize()
		for i, q := range metrics.Quantiles {
			latency.Add(fmt.Sprintf(`quantile="%s",region="%d"`, q.Label, h.id), ps[i].Seconds())
		}
	}

	// Hosted engines share one device, so segment IDs are node-unique
	// and the per-segment children of the space report merge.
	var memtable int64
	var vlogPos float64
	var queued int
	var space vlog.SpaceReport
	var lookups metrics.LookupSnapshot
	for _, db := range dbs {
		lookups.Add(db.LookupStats())
		memtable += db.MemtableBytes()
		vlogPos += float64(db.Log().Position())
		frozen, inflight := db.QueueDepth()
		queued += frozen + inflight
		r := db.Log().SpaceReport()
		space.Live += r.Live
		space.Dead += r.Dead
		space.Trimmed += r.Trimmed
		space.Segments = append(space.Segments, r.Segments...)
	}

	dev := s.cfg.Device.Stats()
	tx, rx := s.cfg.Endpoint.TxBytes(), s.cfg.Endpoint.RxBytes()
	fams := []metrics.Family{
		ops, bytes, epoch, latency,
		metrics.Gauge("tebis_memtable_bytes",
			"Byte footprint of the active L0 memtables across hosted regions.", metrics.Value(float64(memtable))),
		metrics.Gauge("tebis_vlog_bytes",
			"Value-log write position across hosted regions.", metrics.Value(vlogPos)),
		metrics.Gauge("tebis_compaction_queue_depth",
			"Frozen L0 tables waiting plus compaction jobs in flight.", metrics.Value(float64(queued))),
		metrics.Counter("tebis_net_tx_bytes_total",
			"Bytes transmitted over the replication network.", metrics.Value(float64(tx))),
		metrics.Counter("tebis_net_rx_bytes_total",
			"Bytes received over the replication network.", metrics.Value(float64(rx))),
	}
	fams = append(fams, dev.Families()...)
	fams = append(fams, space.Families()...)
	fams = append(fams, lookups.Families()...)
	return append(fams, metrics.AmplificationFamilies(dev.BytesRead+dev.BytesWritten, tx+rx, s.dataset.Load())...)
}
