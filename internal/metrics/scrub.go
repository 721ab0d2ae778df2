package metrics

import "sync/atomic"

// ScrubStats counts integrity-scrub and repair activity on one node:
// segments walked, checksum failures found, segments repaired from a
// replica, and segments nothing could repair (DESIGN.md "Storage
// integrity"). All methods are safe for concurrent use and nil-safe so
// callers can leave the stats unwired.
type ScrubStats struct {
	runs         atomic.Uint64
	scanned      atomic.Uint64
	corruptions  atomic.Uint64
	repaired     atomic.Uint64
	unrepairable atomic.Uint64
}

// ScrubSnapshot is a point-in-time copy of ScrubStats.
type ScrubSnapshot struct {
	// Runs counts completed scrub passes.
	Runs uint64
	// SegmentsScanned counts segments checksum-verified across runs.
	SegmentsScanned uint64
	// CorruptionsFound counts segments that failed verification.
	CorruptionsFound uint64
	// SegmentsRepaired counts corrupt segments restored (from a replica
	// or a local reframe).
	SegmentsRepaired uint64
	// Unrepairable counts corrupt segments no copy could restore.
	Unrepairable uint64
}

// RecordRun counts one completed scrub pass.
func (s *ScrubStats) RecordRun() {
	if s == nil {
		return
	}
	s.runs.Add(1)
}

// AddScanned counts n segments verified.
func (s *ScrubStats) AddScanned(n int) {
	if s == nil {
		return
	}
	s.scanned.Add(uint64(n))
}

// RecordCorruption counts one segment that failed verification.
func (s *ScrubStats) RecordCorruption() {
	if s == nil {
		return
	}
	s.corruptions.Add(1)
}

// RecordRepair counts one corrupt segment restored.
func (s *ScrubStats) RecordRepair() {
	if s == nil {
		return
	}
	s.repaired.Add(1)
}

// RecordUnrepairable counts one corrupt segment left unrestored.
func (s *ScrubStats) RecordUnrepairable() {
	if s == nil {
		return
	}
	s.unrepairable.Add(1)
}

// Snapshot returns a copy of the counters. Nil-safe.
func (s *ScrubStats) Snapshot() ScrubSnapshot {
	if s == nil {
		return ScrubSnapshot{}
	}
	return ScrubSnapshot{
		Runs:             s.runs.Load(),
		SegmentsScanned:  s.scanned.Load(),
		CorruptionsFound: s.corruptions.Load(),
		SegmentsRepaired: s.repaired.Load(),
		Unrepairable:     s.unrepairable.Load(),
	}
}

// Collect implements Source.
func (s *ScrubStats) Collect() []Family {
	if s == nil {
		return nil
	}
	sn := s.Snapshot()
	return []Family{
		Counter("tebis_scrub_runs_total",
			"Completed integrity scrub passes.", Value(float64(sn.Runs))),
		Counter("tebis_scrub_segments_scanned_total",
			"Segments checksum-verified by the scrubber.", Value(float64(sn.SegmentsScanned))),
		Counter("tebis_scrub_corruptions_found_total",
			"Segments that failed checksum verification.", Value(float64(sn.CorruptionsFound))),
		Counter("tebis_scrub_segments_repaired_total",
			"Corrupt segments restored from a replica or local reframe.", Value(float64(sn.SegmentsRepaired))),
		Counter("tebis_scrub_unrepairable_total",
			"Corrupt segments no replica could restore.", Value(float64(sn.Unrepairable))),
	}
}
