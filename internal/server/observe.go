package server

import (
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
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
		s, s.cfg.Cycles, s.cfg.LSM.CompactionStats, s.cfg.Failures,
		s.cfg.Ship, s.cfg.GC.Stats, s.ctrl, storage.NodeCacheOf(s.cfg.Device),
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
// size, value-log position and space, compaction queue depth) and the
// engines' point-lookup level counts.
func (s *Server) Collect() []metrics.Family {
	s.mu.Lock()
	var dbs []*lsm.DB // hosted primaries plus Build-Index backup engines
	for _, hr := range s.regions {
		if hr.db != nil {
			dbs = append(dbs, hr.db)
		}
		if hr.backup != nil && hr.backup.DB() != nil {
			dbs = append(dbs, hr.backup.DB())
		}
	}
	s.mu.Unlock()

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
