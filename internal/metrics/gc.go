package metrics

import "sync/atomic"

// GCStats counts value-log garbage-collection activity on one node:
// passes run or paused by admission control, victim segments reclaimed,
// records relocated or dropped, and the byte volumes moved and freed
// (DESIGN.md "Value-log GC"). All methods are safe for concurrent use and
// nil-safe so callers can leave the stats unwired.
type GCStats struct {
	passes         atomic.Uint64
	paused         atomic.Uint64
	segmentsFreed  atomic.Uint64
	recordsMoved   atomic.Uint64
	recordsDropped atomic.Uint64
	tombsDragged   atomic.Uint64
	bytesMoved     atomic.Uint64
	bytesReclaimed atomic.Uint64
}

// GCSnapshot is a point-in-time copy of GCStats.
type GCSnapshot struct {
	// Passes counts completed GC passes (including no-op passes that
	// found no victim).
	Passes uint64
	// Paused counts passes skipped or cut short because the admission
	// controller reported load pressure.
	Paused uint64
	// SegmentsFreed counts victim segments released back to the device.
	SegmentsFreed uint64
	// RecordsMoved counts live records relocated to the log tail.
	RecordsMoved uint64
	// RecordsDropped counts dead records discarded during relocation.
	RecordsDropped uint64
	// TombstonesDragged counts dead tombstones re-appended to guard
	// older log data from resurrecting on a recovery replay.
	TombstonesDragged uint64
	// BytesMoved counts payload bytes re-appended by relocation.
	BytesMoved uint64
	// BytesReclaimed counts payload bytes freed with the victims.
	BytesReclaimed uint64
}

// RecordPass counts one completed GC pass.
func (s *GCStats) RecordPass() {
	if s == nil {
		return
	}
	s.passes.Add(1)
}

// RecordPaused counts one pass skipped or cut short by admission
// pressure.
func (s *GCStats) RecordPaused() {
	if s == nil {
		return
	}
	s.paused.Add(1)
}

// AddReclaim accounts one pass's reclamation: victim segments freed and
// the payload bytes that went with them.
func (s *GCStats) AddReclaim(segments int, bytes uint64) {
	if s == nil {
		return
	}
	s.segmentsFreed.Add(uint64(segments))
	s.bytesReclaimed.Add(bytes)
}

// AddRelocation accounts one pass's record traffic.
func (s *GCStats) AddRelocation(moved, dropped, dragged int, bytesMoved uint64) {
	if s == nil {
		return
	}
	s.recordsMoved.Add(uint64(moved))
	s.recordsDropped.Add(uint64(dropped))
	s.tombsDragged.Add(uint64(dragged))
	s.bytesMoved.Add(bytesMoved)
}

// Snapshot returns a copy of the counters. Nil-safe.
func (s *GCStats) Snapshot() GCSnapshot {
	if s == nil {
		return GCSnapshot{}
	}
	return GCSnapshot{
		Passes:            s.passes.Load(),
		Paused:            s.paused.Load(),
		SegmentsFreed:     s.segmentsFreed.Load(),
		RecordsMoved:      s.recordsMoved.Load(),
		RecordsDropped:    s.recordsDropped.Load(),
		TombstonesDragged: s.tombsDragged.Load(),
		BytesMoved:        s.bytesMoved.Load(),
		BytesReclaimed:    s.bytesReclaimed.Load(),
	}
}

// Collect implements Source: passes run and paused, segments and bytes
// reclaimed, and the relocation breakdown (records moved, dead records
// dropped, tombstones dragged to preserve replay semantics).
func (s *GCStats) Collect() []Family {
	if s == nil {
		return nil
	}
	sn := s.Snapshot()
	return []Family{
		Counter("tebis_vlog_gc_passes_total",
			"Completed online GC passes.", Value(float64(sn.Passes))),
		Counter("tebis_vlog_gc_paused_total",
			"GC passes paused by the admission controller before or during relocation.", Value(float64(sn.Paused))),
		Counter("tebis_vlog_gc_segments_freed_total",
			"Victim segments freed after relocation, compaction, and replica release.", Value(float64(sn.SegmentsFreed))),
		Counter("tebis_vlog_gc_reclaimed_bytes_total",
			"Bytes reclaimed by freeing victim segments.", Value(float64(sn.BytesReclaimed))),
		Counter("tebis_vlog_gc_records_total",
			"Records processed during GC relocation, by disposition.",
			Labeled("disposition", "moved", float64(sn.RecordsMoved)),
			Labeled("disposition", "dropped", float64(sn.RecordsDropped)),
			Labeled("disposition", "dragged", float64(sn.TombstonesDragged))),
		Counter("tebis_vlog_gc_moved_bytes_total",
			"Live record bytes re-appended to the log tail by GC relocation.", Value(float64(sn.BytesMoved))),
	}
}
