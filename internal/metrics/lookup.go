package metrics

import "sync/atomic"

// LookupStats counts what an engine's gets do with its on-device
// levels: how many gets reached them (a get its memory tables answer
// does not), how many level trees they walked, how many levels a prefix
// filter let them skip, and how many walks a filter let through that
// ended without a tie (no entry in the key's leaf had its prefix).
// Walked over Lookups is the device trees walked per get that reached
// the levels. Lookups that are not gets, such as online GC's liveness
// checks, are not counted. All methods are safe for concurrent use; a
// nil *LookupStats discards everything.
type LookupStats struct {
	lookups, walked, skipped, falsePositives atomic.Uint64
}

// Record counts one get that reached the levels and what it did there.
func (s *LookupStats) Record(walked, skipped, falsePositives int) {
	if s == nil {
		return
	}
	s.lookups.Add(1)
	if walked > 0 {
		s.walked.Add(uint64(walked))
	}
	if skipped > 0 {
		s.skipped.Add(uint64(skipped))
	}
	if falsePositives > 0 {
		s.falsePositives.Add(uint64(falsePositives))
	}
}

// LookupSnapshot is a point-in-time copy of LookupStats.
type LookupSnapshot struct {
	Lookups, Walked, Skipped, FalsePositives uint64
}

// Snapshot returns the current counts.
func (s *LookupStats) Snapshot() LookupSnapshot {
	if s == nil {
		return LookupSnapshot{}
	}
	return LookupSnapshot{
		Lookups:        s.lookups.Load(),
		Walked:         s.walked.Load(),
		Skipped:        s.skipped.Load(),
		FalsePositives: s.falsePositives.Load(),
	}
}

// Add accumulates o into s: a node sums its engines' counts.
func (s *LookupSnapshot) Add(o LookupSnapshot) {
	s.Lookups += o.Lookups
	s.Walked += o.Walked
	s.Skipped += o.Skipped
	s.FalsePositives += o.FalsePositives
}

// Families renders the counts as one family, a series per event.
func (s LookupSnapshot) Families() []Family {
	return []Family{Counter("tebis_lookup_levels_total",
		"Gets that reached the on-device levels (not those answered from memory, nor GC liveness checks) and what they did there: trees walked, levels a prefix filter skipped, walks a filter let through that found no entry with the key's prefix.",
		Labeled("event", "lookup", float64(s.Lookups)),
		Labeled("event", "walked", float64(s.Walked)),
		Labeled("event", "skipped", float64(s.Skipped)),
		Labeled("event", "false_positive", float64(s.FalsePositives)),
	)}
}
