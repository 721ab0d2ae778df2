package metrics

import "sync"

// GCStats counts value-log garbage-collection activity on one node:
// passes run or paused by admission control, victim segments reclaimed,
// records relocated or dropped, and the byte volumes moved and freed
// (DESIGN.md "Value-log GC"). All methods are nil-safe so callers can leave
// the stats unwired.
type GCStats struct {
	mu             sync.Mutex
	passes         uint64
	paused         uint64
	segmentsFreed  uint64
	recordsMoved   uint64
	recordsDropped uint64
	tombsDragged   uint64
	bytesMoved     uint64
	bytesReclaimed uint64
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
	s.mu.Lock()
	s.passes++
	s.mu.Unlock()
}

// RecordPaused counts one pass skipped or cut short by admission
// pressure.
func (s *GCStats) RecordPaused() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.paused++
	s.mu.Unlock()
}

// AddReclaim accounts one pass's reclamation: victim segments freed and
// the payload bytes that went with them.
func (s *GCStats) AddReclaim(segments int, bytes uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.segmentsFreed += uint64(segments)
	s.bytesReclaimed += bytes
	s.mu.Unlock()
}

// AddRelocation accounts one pass's record traffic.
func (s *GCStats) AddRelocation(moved, dropped, dragged int, bytesMoved uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.recordsMoved += uint64(moved)
	s.recordsDropped += uint64(dropped)
	s.tombsDragged += uint64(dragged)
	s.bytesMoved += bytesMoved
	s.mu.Unlock()
}

// Snapshot returns a copy of the counters. Nil-safe.
func (s *GCStats) Snapshot() GCSnapshot {
	if s == nil {
		return GCSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return GCSnapshot{
		Passes:            s.passes,
		Paused:            s.paused,
		SegmentsFreed:     s.segmentsFreed,
		RecordsMoved:      s.recordsMoved,
		RecordsDropped:    s.recordsDropped,
		TombstonesDragged: s.tombsDragged,
		BytesMoved:        s.bytesMoved,
		BytesReclaimed:    s.bytesReclaimed,
	}
}
