package metrics

import "sync"

// ShipStats counts index-segment shipping traffic on one primary:
// how many raw segment-image bytes were handed to the ship path versus
// how many actually crossed the wire after the ship codec ran
// (DESIGN.md "Replication"). The gap between the two is the
// network-amplification win over the paper's uncompressed Send-Index. All
// methods are nil-safe so callers can leave the stats unwired.
type ShipStats struct {
	mu        sync.Mutex
	rawBytes  uint64
	wireBytes uint64
	full      uint64
	delta     uint64
	fallbacks uint64
}

// ShipSnapshot is a point-in-time copy of ShipStats.
type ShipSnapshot struct {
	// RawBytes counts segment-image bytes handed to the ship path, per
	// backup transfer (a segment shipped to two backups counts twice).
	RawBytes uint64
	// WireBytes counts bytes actually staged over the wire after the
	// codec (frame headers included).
	WireBytes uint64
	// FullSegments counts transfers shipped as full images.
	FullSegments uint64
	// DeltaSegments counts transfers shipped as deltas against a prior
	// level image.
	DeltaSegments uint64
	// Fallbacks counts delta transfers a backup rejected (missing or
	// mismatched base) that were re-shipped as full images.
	Fallbacks uint64
}

// RecordShip counts one segment transfer to one backup: rawLen image
// bytes sent as wireLen wire bytes, as a delta when delta is set.
func (s *ShipStats) RecordShip(rawLen, wireLen int, delta bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rawBytes += uint64(rawLen)
	s.wireBytes += uint64(wireLen)
	if delta {
		s.delta++
	} else {
		s.full++
	}
	s.mu.Unlock()
}

// RecordFallback counts one rejected delta transfer (the full re-ship
// is recorded separately by RecordShip).
func (s *ShipStats) RecordFallback() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.fallbacks++
	s.mu.Unlock()
}

// Snapshot copies the counters.
func (s *ShipStats) Snapshot() ShipSnapshot {
	if s == nil {
		return ShipSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShipSnapshot{
		RawBytes:      s.rawBytes,
		WireBytes:     s.wireBytes,
		FullSegments:  s.full,
		DeltaSegments: s.delta,
		Fallbacks:     s.fallbacks,
	}
}

// Reset zeroes the counters (bench harness phase boundaries).
func (s *ShipStats) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rawBytes, s.wireBytes, s.full, s.delta, s.fallbacks = 0, 0, 0, 0, 0
	s.mu.Unlock()
}
