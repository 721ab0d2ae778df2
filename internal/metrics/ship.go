package metrics

import (
	"math"
	"sync/atomic"
)

// ShipStats counts index-segment shipping traffic on one primary:
// how many raw segment-image bytes were handed to the ship path versus
// how many actually crossed the wire after the ship codec ran
// (DESIGN.md "Replication"). The gap between the two is the
// network-amplification win over the paper's uncompressed Send-Index. All
// methods are safe for concurrent use and nil-safe so callers can leave
// the stats unwired.
type ShipStats struct {
	rawBytes  atomic.Uint64
	wireBytes atomic.Uint64
	full      atomic.Uint64
	delta     atomic.Uint64
	fallbacks atomic.Uint64
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
	s.rawBytes.Add(uint64(rawLen))
	s.wireBytes.Add(uint64(wireLen))
	if delta {
		s.delta.Add(1)
	} else {
		s.full.Add(1)
	}
}

// RecordFallback counts one rejected delta transfer (the full re-ship
// is recorded separately by RecordShip).
func (s *ShipStats) RecordFallback() {
	if s == nil {
		return
	}
	s.fallbacks.Add(1)
}

// Snapshot copies the counters.
func (s *ShipStats) Snapshot() ShipSnapshot {
	if s == nil {
		return ShipSnapshot{}
	}
	return ShipSnapshot{
		RawBytes:      s.rawBytes.Load(),
		WireBytes:     s.wireBytes.Load(),
		FullSegments:  s.full.Load(),
		DeltaSegments: s.delta.Load(),
		Fallbacks:     s.fallbacks.Load(),
	}
}

// Reset zeroes the counters (bench harness phase boundaries).
func (s *ShipStats) Reset() {
	if s == nil {
		return
	}
	s.rawBytes.Store(0)
	s.wireBytes.Store(0)
	s.full.Store(0)
	s.delta.Store(0)
	s.fallbacks.Store(0)
}

// Collect implements Source. The ratio gauge is computed from the byte
// totals printed beside it, and reports NaN until any bytes have shipped.
func (s *ShipStats) Collect() []Family {
	if s == nil {
		return nil
	}
	sn := s.Snapshot()
	ratio := math.NaN()
	if sn.RawBytes != 0 && sn.WireBytes != 0 {
		ratio = float64(sn.RawBytes) / float64(sn.WireBytes)
	}
	return []Family{
		Counter("tebis_ship_raw_bytes_total",
			"Index-segment bytes handed to the ship path, before the codec.", Value(float64(sn.RawBytes))),
		Counter("tebis_ship_wire_bytes_total",
			"Index-segment bytes actually staged over the wire, after the codec.", Value(float64(sn.WireBytes))),
		Counter("tebis_ship_segments_total",
			"Index-segment transfers to backups, by transfer mode.",
			Labeled("mode", "full", float64(sn.FullSegments)),
			Labeled("mode", "delta", float64(sn.DeltaSegments))),
		Counter("tebis_ship_delta_fallbacks_total",
			"Delta transfers a backup rejected and the primary re-shipped in full.", Value(float64(sn.Fallbacks))),
		Gauge("tebis_ship_compression_ratio",
			"Raw bytes divided by wire bytes for shipped index segments (NaN until bytes ship).", Value(ratio)),
	}
}
