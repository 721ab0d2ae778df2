package metrics

import (
	"sync/atomic"
	"time"
)

// CompactionStats accumulates wall-clock accounting for the staged
// compaction pipeline: per-stage durations (merge, index build, segment
// shipping), how many shipped segments left before their build finished
// (the Send-Index overlap the paper's streaming design targets), and the
// writer stalls caused by a full frozen-L0 queue (§5.1). All methods are
// safe for concurrent use; a nil *CompactionStats discards everything.
type CompactionStats struct {
	jobs       atomic.Uint64
	mergeNanos atomic.Int64
	buildNanos atomic.Int64
	shipNanos  atomic.Int64

	segsShipped atomic.Uint64
	segsEarly   atomic.Uint64

	stalls     atomic.Uint64
	stallNanos atomic.Int64
}

// RecordJob counts one completed compaction job.
func (s *CompactionStats) RecordJob() {
	if s == nil {
		return
	}
	s.jobs.Add(1)
}

// RecordMerge adds wall time spent in a job's merge stage.
func (s *CompactionStats) RecordMerge(d time.Duration) {
	if s == nil {
		return
	}
	s.mergeNanos.Add(int64(d))
}

// RecordBuild adds wall time spent in a job's index-build stage.
func (s *CompactionStats) RecordBuild(d time.Duration) {
	if s == nil {
		return
	}
	s.buildNanos.Add(int64(d))
}

// RecordShip adds the time one segment spent in the shipping stage.
// early reports whether the segment was handed to the shipping stage
// before its job's build stage finished — the build/ship overlap.
func (s *CompactionStats) RecordShip(d time.Duration, early bool) {
	if s == nil {
		return
	}
	s.shipNanos.Add(int64(d))
	s.segsShipped.Add(1)
	if early {
		s.segsEarly.Add(1)
	}
}

// StallBegin counts a writer entering an L0 stall. It is recorded
// separately from the duration so an in-progress stall is observable.
func (s *CompactionStats) StallBegin() {
	if s == nil {
		return
	}
	s.stalls.Add(1)
}

// StallEnd adds the duration of a finished writer stall.
func (s *CompactionStats) StallEnd(d time.Duration) {
	if s == nil {
		return
	}
	s.stallNanos.Add(int64(d))
}

// Snapshot returns a consistent-enough copy for reporting.
func (s *CompactionStats) Snapshot() CompactionSnapshot {
	if s == nil {
		return CompactionSnapshot{}
	}
	return CompactionSnapshot{
		Jobs:                 s.jobs.Load(),
		MergeTime:            time.Duration(s.mergeNanos.Load()),
		BuildTime:            time.Duration(s.buildNanos.Load()),
		ShipTime:             time.Duration(s.shipNanos.Load()),
		SegmentsShipped:      s.segsShipped.Load(),
		SegmentsShippedEarly: s.segsEarly.Load(),
		WriterStalls:         s.stalls.Load(),
		WriterStallTime:      time.Duration(s.stallNanos.Load()),
	}
}

// Collect implements Source: stage durations (Figure 9's merge/build/ship
// pipeline), the early-ship split, and writer stalls (the paper's L0
// backpressure signal).
func (s *CompactionStats) Collect() []Family {
	if s == nil {
		return nil
	}
	sn := s.Snapshot()
	return []Family{
		Counter("tebis_compaction_jobs_total",
			"Compaction jobs completed by the scheduler.", Value(float64(sn.Jobs))),
		Counter("tebis_compaction_stage_seconds_total",
			"Cumulative time spent in each Send-Index pipeline stage.",
			Labeled("stage", "merge", sn.MergeTime.Seconds()),
			Labeled("stage", "build", sn.BuildTime.Seconds()),
			Labeled("stage", "ship", sn.ShipTime.Seconds())),
		Counter("tebis_compaction_segments_shipped_total",
			"Index segments shipped to backups, split by whether the ship overlapped the build.",
			Labeled("early", "true", float64(sn.SegmentsShippedEarly)),
			Labeled("early", "false", float64(sn.SegmentsShipped-sn.SegmentsShippedEarly))),
		Counter("tebis_writer_stalls_total",
			"Writer stalls caused by a full L0 waiting on compaction.", Value(float64(sn.WriterStalls))),
		Counter("tebis_writer_stall_seconds_total",
			"Cumulative writer stall time.", Value(sn.WriterStallTime.Seconds())),
	}
}

// CompactionSnapshot is a point-in-time copy of CompactionStats.
type CompactionSnapshot struct {
	// Jobs counts completed compaction jobs.
	Jobs uint64
	// MergeTime, BuildTime and ShipTime are cumulative wall time per
	// pipeline stage (stages of one job overlap, so they can sum to more
	// than the job's wall time).
	MergeTime time.Duration
	BuildTime time.Duration
	ShipTime  time.Duration
	// SegmentsShipped counts index segments handed to the listener.
	SegmentsShipped uint64
	// SegmentsShippedEarly counts segments handed to the listener before
	// their job's build stage completed.
	SegmentsShippedEarly uint64
	// WriterStalls counts writers that blocked on a full frozen-L0 queue.
	WriterStalls uint64
	// WriterStallTime is the total time writers spent blocked.
	WriterStallTime time.Duration
}

// OverlapFraction is the fraction of shipped segments that left before
// their build completed (1.0 = fully streamed, 0 = ship-after-build).
func (s CompactionSnapshot) OverlapFraction() float64 {
	if s.SegmentsShipped == 0 {
		return 0
	}
	return float64(s.SegmentsShippedEarly) / float64(s.SegmentsShipped)
}
