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
}

// ShipSnapshot is a point-in-time copy of ShipStats.
type ShipSnapshot struct {
	// RawBytes counts segment-image bytes handed to the ship path, per
	// backup transfer (a segment shipped to two backups counts twice).
	RawBytes uint64
	// WireBytes counts bytes actually staged over the wire after the
	// codec (frame headers included).
	WireBytes uint64
	// FullSegments counts segment transfers to backups.
	FullSegments uint64
	// DeltaSegments is always 0; kept only because benchmark/ reads it (ROADMAP item 4).
	DeltaSegments uint64
	// Fallbacks is always 0; kept only because benchmark/ reads it (ROADMAP item 4).
	Fallbacks uint64
}

// RecordShip counts one segment transfer to one backup: rawLen image
// bytes sent as wireLen wire bytes.
func (s *ShipStats) RecordShip(rawLen, wireLen int) {
	if s == nil {
		return
	}
	s.rawBytes.Add(uint64(rawLen))
	s.wireBytes.Add(uint64(wireLen))
	s.full.Add(1)
}

// Snapshot copies the counters.
func (s *ShipStats) Snapshot() ShipSnapshot {
	if s == nil {
		return ShipSnapshot{}
	}
	return ShipSnapshot{
		RawBytes:     s.rawBytes.Load(),
		WireBytes:    s.wireBytes.Load(),
		FullSegments: s.full.Load(),
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
			"Index-segment transfers to backups.", Value(float64(sn.FullSegments))),
		Gauge("tebis_ship_compression_ratio",
			"Raw bytes divided by wire bytes for shipped index segments (NaN until bytes ship).", Value(ratio)),
	}
}
