package obs

import (
	"fmt"
	"math"
	"strconv"

	"tebis/internal/metrics"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// Collectors wrap the measurement structs in internal/metrics (and the
// storage/rdma byte counters) as live metric families. Each Register*
// call pulls a fresh snapshot at exposition time, so scraping /metrics
// always reflects current totals. All registration is nil-safe on both
// the registry and the wrapped struct.

// RegisterCompaction exposes the compaction scheduler counters:
// stage durations (Figure 9's merge/build/ship pipeline), early-ship
// fraction, and writer stalls (the paper's L0 backpressure signal).
func (r *Registry) RegisterCompaction(labels Labels, s *metrics.CompactionStats) {
	if r == nil {
		return
	}
	snap := func() metrics.CompactionSnapshot { return s.Snapshot() }
	r.CounterFunc("tebis_compaction_jobs_total",
		"Compaction jobs completed by the scheduler.", labels,
		func() float64 { return float64(snap().Jobs) })
	r.CounterFunc("tebis_compaction_stage_seconds_total",
		"Cumulative time spent in each Send-Index pipeline stage.",
		labels.clone(Labels{"stage": "merge"}),
		func() float64 { return snap().MergeTime.Seconds() })
	r.CounterFunc("tebis_compaction_stage_seconds_total", "",
		labels.clone(Labels{"stage": "build"}),
		func() float64 { return snap().BuildTime.Seconds() })
	r.CounterFunc("tebis_compaction_stage_seconds_total", "",
		labels.clone(Labels{"stage": "ship"}),
		func() float64 { return snap().ShipTime.Seconds() })
	r.CounterFunc("tebis_compaction_segments_shipped_total",
		"Index segments shipped to backups, split by whether the ship overlapped the build.",
		labels.clone(Labels{"early": "true"}),
		func() float64 { return float64(snap().SegmentsShippedEarly) })
	r.CounterFunc("tebis_compaction_segments_shipped_total", "",
		labels.clone(Labels{"early": "false"}),
		func() float64 {
			sn := snap()
			return float64(sn.SegmentsShipped - sn.SegmentsShippedEarly)
		})
	r.CounterFunc("tebis_writer_stalls_total",
		"Writer stalls caused by a full L0 waiting on compaction.", labels,
		func() float64 { return float64(snap().WriterStalls) })
	r.CounterFunc("tebis_writer_stall_seconds_total",
		"Cumulative writer stall time.", labels,
		func() float64 { return snap().WriterStallTime.Seconds() })
}

// RegisterFailure exposes the replication control-plane failure
// counters: RPC retries, backup evictions, resync traffic, and the
// degraded-replication state.
func (r *Registry) RegisterFailure(labels Labels, s *metrics.FailureStats) {
	if r == nil {
		return
	}
	snap := func() metrics.FailureSnapshot { return s.Snapshot() }
	r.CounterFunc("tebis_replication_retries_total",
		"Replication RPC retries after transient failures.", labels,
		func() float64 { return float64(snap().Retries) })
	r.CounterFunc("tebis_backup_evictions_total",
		"Backups evicted from a replica group after exhausting retries.", labels,
		func() float64 { return float64(snap().Evictions) })
	r.CounterFunc("tebis_resync_bytes_total",
		"Bytes transferred to resynchronize rejoining backups.", labels,
		func() float64 { return float64(snap().ResyncBytes) })
	r.GaugeFunc("tebis_degraded",
		"1 while the replica group runs below its replication factor.", labels,
		func() float64 {
			if snap().Degraded {
				return 1
			}
			return 0
		})
	r.CounterFunc("tebis_degraded_seconds_total",
		"Cumulative time spent degraded.", labels,
		func() float64 { return snap().DegradedDuration.Seconds() })
}

// RegisterScrub exposes the integrity scrub-and-repair counters
// (DESIGN.md "Storage integrity"): segments verified, checksum failures
// found, and how many of those a replica could (or could not) repair.
func (r *Registry) RegisterScrub(labels Labels, s *metrics.ScrubStats) {
	if r == nil {
		return
	}
	snap := func() metrics.ScrubSnapshot { return s.Snapshot() }
	r.CounterFunc("tebis_scrub_runs_total",
		"Completed integrity scrub passes.", labels,
		func() float64 { return float64(snap().Runs) })
	r.CounterFunc("tebis_scrub_segments_scanned_total",
		"Segments checksum-verified by the scrubber.", labels,
		func() float64 { return float64(snap().SegmentsScanned) })
	r.CounterFunc("tebis_scrub_corruptions_found_total",
		"Segments that failed checksum verification.", labels,
		func() float64 { return float64(snap().CorruptionsFound) })
	r.CounterFunc("tebis_scrub_segments_repaired_total",
		"Corrupt segments restored from a replica or local reframe.", labels,
		func() float64 { return float64(snap().SegmentsRepaired) })
	r.CounterFunc("tebis_scrub_unrepairable_total",
		"Corrupt segments no replica could restore.", labels,
		func() float64 { return float64(snap().Unrepairable) })
}

// RegisterCycles exposes the Table 3 cycle breakdown, one series per
// component.
func (r *Registry) RegisterCycles(labels Labels, cy *metrics.Cycles) {
	if r == nil {
		return
	}
	for c := metrics.Component(0); c < metrics.NumComponents; c++ {
		comp := c
		r.CounterFunc("tebis_cycles_total",
			"Simulated CPU cycles charged per Table 3 component.",
			labels.clone(Labels{"component": comp.String()}),
			func() float64 { return float64(cy.Snapshot()[comp]) })
	}
}

// RegisterDevice exposes a storage device's I/O counters — the
// numerator of the paper's I/O amplification metric.
func (r *Registry) RegisterDevice(labels Labels, dev storage.Device) {
	if r == nil || dev == nil {
		return
	}
	r.CounterFunc("tebis_device_read_bytes_total",
		"Bytes read from the storage device.", labels,
		func() float64 { return float64(dev.Stats().BytesRead) })
	r.CounterFunc("tebis_device_write_bytes_total",
		"Bytes written to the storage device.", labels,
		func() float64 { return float64(dev.Stats().BytesWritten) })
	r.GaugeFunc("tebis_device_segments_live",
		"Segments currently allocated on the device.", labels,
		func() float64 { return float64(dev.Stats().SegmentsLive) })
}

// NetCounters is the subset of an RDMA endpoint the network collector
// needs; *rdma.Endpoint satisfies it (obs must not import rdma, which
// sits above storage in the dependency order).
type NetCounters interface {
	TxBytes() uint64
	RxBytes() uint64
}

// RegisterEndpoint exposes an endpoint's transmit/receive byte
// counters — the numerator of the paper's network amplification metric.
func (r *Registry) RegisterEndpoint(labels Labels, ep NetCounters) {
	if r == nil || ep == nil {
		return
	}
	r.CounterFunc("tebis_net_tx_bytes_total",
		"Bytes transmitted over the replication network.", labels,
		func() float64 { return float64(ep.TxBytes()) })
	r.CounterFunc("tebis_net_rx_bytes_total",
		"Bytes received over the replication network.", labels,
		func() float64 { return float64(ep.RxBytes()) })
}

// RegisterAmplification exposes the paper's two amplification ratios
// (Figure 7): traffic fns return cumulative device or network bytes,
// dataset returns the user bytes ingested so far. Until the dataset is
// non-empty the ratio is undefined, so the gauges report NaN — which
// every sink (Prometheus exposition, the sampler rings, JSON export)
// skips — rather than charting a bogus perfect 0× ratio on early
// scrapes.
func (r *Registry) RegisterAmplification(labels Labels, ioTraffic, netTraffic, dataset func() float64) {
	if r == nil {
		return
	}
	ratio := func(traffic func() float64) func() float64 {
		return func() float64 {
			d := dataset()
			if d <= 0 {
				return math.NaN()
			}
			return traffic() / d
		}
	}
	if ioTraffic != nil {
		r.GaugeFunc("tebis_io_amplification",
			"Device traffic divided by dataset size (Figure 7).", labels, ratio(ioTraffic))
	}
	if netTraffic != nil {
		r.GaugeFunc("tebis_net_amplification",
			"Network traffic divided by dataset size (Figure 7).", labels, ratio(netTraffic))
	}
}

// RegisterShip exposes the ship-codec counters (DESIGN.md "Replication"): raw
// versus wire bytes for shipped index segments, the full/delta transfer
// split, rejected-delta fallbacks, and the resulting compression ratio.
// The ratio gauge reports NaN until any bytes have shipped.
func (r *Registry) RegisterShip(labels Labels, s *metrics.ShipStats) {
	if r == nil || s == nil {
		return
	}
	snap := func() metrics.ShipSnapshot { return s.Snapshot() }
	r.CounterFunc("tebis_ship_raw_bytes_total",
		"Index-segment bytes handed to the ship path, before the codec.", labels,
		func() float64 { return float64(snap().RawBytes) })
	r.CounterFunc("tebis_ship_wire_bytes_total",
		"Index-segment bytes actually staged over the wire, after the codec.", labels,
		func() float64 { return float64(snap().WireBytes) })
	r.CounterFunc("tebis_ship_segments_total",
		"Index-segment transfers to backups, by transfer mode.",
		labels.clone(Labels{"mode": "full"}),
		func() float64 { return float64(snap().FullSegments) })
	r.CounterFunc("tebis_ship_segments_total", "",
		labels.clone(Labels{"mode": "delta"}),
		func() float64 { return float64(snap().DeltaSegments) })
	r.CounterFunc("tebis_ship_delta_fallbacks_total",
		"Delta transfers a backup rejected and the primary re-shipped in full.", labels,
		func() float64 { return float64(snap().Fallbacks) })
	r.GaugeFunc("tebis_ship_compression_ratio",
		"Raw bytes divided by wire bytes for shipped index segments (NaN until bytes ship).", labels,
		func() float64 {
			sn := snap()
			if sn.RawBytes == 0 || sn.WireBytes == 0 {
				return math.NaN()
			}
			return float64(sn.RawBytes) / float64(sn.WireBytes)
		})
}

// RegisterVlogSpace exposes the value log's space ledger (DESIGN.md
// §12): live versus dead bytes across sealed segments and the tail, the
// cumulative bytes reclaimed by trims and GC releases, and a per-segment
// dead-ratio family — the input to the GC victim picker. Registered even
// when GC is disabled, so operators can see reclaimable space before
// turning GC on. Segment children come and go as the log seals and
// frees, so the dead-ratio family re-enumerates on every scrape.
func (r *Registry) RegisterVlogSpace(labels Labels, snap func() vlog.SpaceReport) {
	if r == nil || snap == nil {
		return
	}
	r.GaugeFunc("tebis_vlog_live_bytes",
		"Live (referenced) record bytes across the value log.", labels,
		func() float64 { return float64(snap().Live) })
	r.GaugeFunc("tebis_vlog_dead_bytes",
		"Dead (overwritten or deleted) record bytes still occupying the value log.", labels,
		func() float64 { return float64(snap().Dead) })
	r.CounterFunc("tebis_vlog_trimmed_bytes_total",
		"Value-log bytes reclaimed by prefix trims and GC releases.", labels,
		func() float64 { return float64(snap().Trimmed) })
	r.FamilyFunc("tebis_vlog_segment_dead_ratio",
		"Dead-byte fraction per sealed value-log segment (the GC victim cost signal).",
		"gauge", labels, func() map[string]float64 {
			rep := snap()
			out := make(map[string]float64, len(rep.Segments))
			for _, s := range rep.Segments {
				out[fmt.Sprintf(`segment="%d"`, s.Seg)] = s.DeadRatio()
			}
			return out
		})
}

// RegisterGC exposes the online value-log GC counters (DESIGN.md "Value-log
// GC"): passes run and paused, segments and bytes reclaimed, and the
// relocation breakdown (records moved, dead records dropped, tombstones
// dragged to preserve replay semantics).
func (r *Registry) RegisterGC(labels Labels, s *metrics.GCStats) {
	if r == nil || s == nil {
		return
	}
	snap := func() metrics.GCSnapshot { return s.Snapshot() }
	r.CounterFunc("tebis_vlog_gc_passes_total",
		"Completed online GC passes.", labels,
		func() float64 { return float64(snap().Passes) })
	r.CounterFunc("tebis_vlog_gc_paused_total",
		"GC passes paused by the admission controller before or during relocation.", labels,
		func() float64 { return float64(snap().Paused) })
	r.CounterFunc("tebis_vlog_gc_segments_freed_total",
		"Victim segments freed after relocation, compaction, and replica release.", labels,
		func() float64 { return float64(snap().SegmentsFreed) })
	r.CounterFunc("tebis_vlog_gc_reclaimed_bytes_total",
		"Bytes reclaimed by freeing victim segments.", labels,
		func() float64 { return float64(snap().BytesReclaimed) })
	r.CounterFunc("tebis_vlog_gc_records_total",
		"Records processed during GC relocation, by disposition.",
		labels.clone(Labels{"disposition": "moved"}),
		func() float64 { return float64(snap().RecordsMoved) })
	r.CounterFunc("tebis_vlog_gc_records_total", "",
		labels.clone(Labels{"disposition": "dropped"}),
		func() float64 { return float64(snap().RecordsDropped) })
	r.CounterFunc("tebis_vlog_gc_records_total", "",
		labels.clone(Labels{"disposition": "dragged"}),
		func() float64 { return float64(snap().TombstonesDragged) })
	r.CounterFunc("tebis_vlog_gc_moved_bytes_total",
		"Live record bytes re-appended to the log tail by GC relocation.", labels,
		func() float64 { return float64(snap().BytesMoved) })
}

// RegisterTracer exposes the span ring's occupancy and eviction
// counters, so trace loss under load (spans dropped to stay inside the
// ring's span-count and byte bounds) is visible on /metrics.
func (r *Registry) RegisterTracer(labels Labels, tr *Tracer) {
	if r == nil || tr == nil {
		return
	}
	r.CounterFunc("tebis_trace_dropped_spans_total",
		"Spans evicted from the trace ring to stay within its bounds.", labels,
		func() float64 { return float64(tr.Dropped()) })
	r.GaugeFunc("tebis_trace_spans",
		"Spans currently buffered in the trace ring.", labels,
		func() float64 { return float64(tr.Len()) })
	r.GaugeFunc("tebis_trace_bytes",
		"Approximate resident bytes of the buffered trace spans.", labels,
		func() float64 { return float64(tr.Bytes()) })
}

// stageQuantileLabels pre-renders metrics.StageQuantiles the way
// SummaryQuantiles does, index-aligned with StageSnapshot.Percentiles.
var stageQuantileLabels = []string{"0.5", "0.9", "0.99", "0.999"}

// RegisterStages exposes a StageSet as the tail-attribution families
// (DESIGN.md "Observability"):
//
//   - tebis_op_stage_seconds{stage,tenant,quantile} — per-stage latency
//     quantiles of the sampled request pipeline;
//   - tebis_op_stage_samples_total{stage,tenant} — samples behind them;
//   - tebis_op_stage_exemplar_seconds{stage,tenant,le,trace_id} — the
//     retained worst offenders, one per coarse latency bucket; feed the
//     trace_id to /debug/trace to see that exact request's fan-out.
//
// Children are dynamic (stage×tenant pairs appear with traffic), so the
// families re-enumerate through FamilyFunc on every scrape.
func (r *Registry) RegisterStages(labels Labels, s *metrics.StageSet) {
	if r == nil || s == nil {
		return
	}
	tenantLabel := func(t string) string {
		if t == "" {
			return "default"
		}
		return t
	}
	r.FamilyFunc("tebis_op_stage_seconds",
		"Per-stage latency quantiles of sampled requests (client queue, dispatch, apply, ship, ack).",
		"summary", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for _, snap := range s.Snapshot() {
				for i, p := range snap.Percentiles {
					if i >= len(stageQuantileLabels) {
						break
					}
					k := fmt.Sprintf(`stage=%q,tenant=%q,quantile=%q`,
						snap.Stage, tenantLabel(snap.Tenant), stageQuantileLabels[i])
					out[k] = p.Seconds()
				}
			}
			return out
		})
	r.FamilyFunc("tebis_op_stage_samples_total",
		"Sampled stage durations recorded per stage and tenant.",
		"counter", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for _, snap := range s.Snapshot() {
				k := fmt.Sprintf(`stage=%q,tenant=%q`, snap.Stage, tenantLabel(snap.Tenant))
				out[k] = float64(snap.Count)
			}
			return out
		})
	r.FamilyFunc("tebis_op_stage_exemplar_seconds",
		"Recent worst-offender stage durations; trace_id resolves on /debug/trace.",
		"gauge", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for _, snap := range s.Snapshot() {
				for _, ex := range snap.Exemplars {
					le := "+Inf"
					if ex.Le > 0 {
						le = strconv.FormatFloat(ex.Le.Seconds(), 'g', -1, 64)
					}
					k := fmt.Sprintf(`stage=%q,tenant=%q,le=%q,trace_id="%d"`,
						snap.Stage, tenantLabel(snap.Tenant), le, ex.TraceID)
					out[k] = ex.Dur.Seconds()
				}
			}
			return out
		})
}

// RegisterLag exposes a LagSet as the replication-plane lag families:
//
//   - tebis_replica_lag_ops{region,backup} — value-log records shipped
//     but not yet acknowledged by the backup;
//   - tebis_replica_lag_bytes{region,backup} — the same lag in bytes;
//   - tebis_replica_backlog{region,backup} — index-segment ships in
//     flight in the pipeline;
//   - tebis_replica_staleness_seconds{region,backup} — last-ack age,
//     zero while the backup is caught up;
//   - tebis_replica_ack_seconds{region,backup,quantile} — ack round-
//     trip quantiles, plus _count with the acks behind them.
//
// Children are dynamic (streams appear on first ship and vanish on
// eviction), so the families re-enumerate through FamilyFunc on every
// scrape.
func (r *Registry) RegisterLag(labels Labels, s *metrics.LagSet) {
	if r == nil || s == nil {
		return
	}
	streamKey := func(snap metrics.LagSnapshot) string {
		return fmt.Sprintf(`backup=%q,region="%d"`, snap.Backup, snap.Region)
	}
	r.FamilyFunc("tebis_replica_lag_ops",
		"Value-log records shipped to a backup but not yet acknowledged.",
		"gauge", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for _, snap := range s.Snapshot() {
				out[streamKey(snap)] = float64(snap.LagOps)
			}
			return out
		})
	r.FamilyFunc("tebis_replica_lag_bytes",
		"Bytes shipped to a backup but not yet acknowledged.",
		"gauge", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for _, snap := range s.Snapshot() {
				out[streamKey(snap)] = float64(snap.LagBytes)
			}
			return out
		})
	r.FamilyFunc("tebis_replica_backlog",
		"Index-segment ships in flight per backup.",
		"gauge", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for _, snap := range s.Snapshot() {
				out[streamKey(snap)] = float64(snap.Backlog)
			}
			return out
		})
	r.FamilyFunc("tebis_replica_staleness_seconds",
		"Age of a backup's last acknowledgement; zero while caught up.",
		"gauge", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for _, snap := range s.Snapshot() {
				out[streamKey(snap)] = snap.Staleness.Seconds()
			}
			return out
		})
	r.FamilyFunc("tebis_replica_ack_seconds",
		"Per-backup acknowledgement round-trip quantiles.",
		"summary", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for _, snap := range s.Snapshot() {
				for i, p := range snap.AckPercentiles {
					if i >= len(stageQuantileLabels) {
						break
					}
					out[fmt.Sprintf(`backup=%q,quantile=%q,region="%d"`,
						snap.Backup, stageQuantileLabels[i], snap.Region)] = p.Seconds()
				}
			}
			return out
		})
	r.FamilyFunc("tebis_replica_ack_seconds_count",
		"Acknowledgements behind the per-backup round-trip quantiles.",
		"counter", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for _, snap := range s.Snapshot() {
				out[streamKey(snap)] = float64(snap.AckCount)
			}
			return out
		})
}

// RegisterEvents exposes an event journal's cumulative per-type
// counters as tebis_events_total{type}; the events themselves serve on
// /debug/events.
func (r *Registry) RegisterEvents(labels Labels, ev *EventLog) {
	if r == nil || ev == nil {
		return
	}
	r.FamilyFunc("tebis_events_total",
		"Control-plane events recorded in the journal, by type.",
		"counter", labels, func() map[string]float64 {
			out := make(map[string]float64)
			for t, n := range ev.Counts() {
				out[fmt.Sprintf(`type=%q`, t)] = float64(n)
			}
			return out
		})
}

// RegisterOpLatency exposes one op kind's latency histogram as a
// summary family plus an ops counter — the Figure 8 tail-latency view.
func (r *Registry) RegisterOpLatency(labels Labels, op string, h *metrics.Histogram) {
	if r == nil {
		return
	}
	opLabels := labels.clone(Labels{"op": op})
	r.Summary("tebis_op_latency_seconds",
		"Per-operation service latency (Figure 8).", opLabels, h)
	r.CounterFunc("tebis_ops_total",
		"Operations served, by kind.", opLabels,
		func() float64 { return float64(h.Count()) })
}
