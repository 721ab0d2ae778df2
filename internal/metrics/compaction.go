package metrics

import (
	"sync/atomic"
	"time"
)

// CompactionStats accumulates wall-clock accounting for compaction jobs:
// their merge, index-build and segment-shipping time, how many shipped
// segments left while their build was still adding entries (the
// Send-Index streaming the paper's design targets), and the writer
// stalls caused by a full frozen L0 (§5.1). All methods are
// safe for concurrent use; a nil *CompactionStats discards everything.
type CompactionStats struct {
	jobs       atomic.Uint64
	moves      atomic.Uint64
	mergeNanos atomic.Int64
	buildNanos atomic.Int64
	shipNanos  atomic.Int64

	segsShipped atomic.Uint64
	segsEarly   atomic.Uint64

	stalls     atomic.Uint64
	stallNanos atomic.Int64
}

// RecordJob counts one completed compaction job; move says it moved
// its source level instead of merging it.
func (s *CompactionStats) RecordJob(move bool) {
	if s == nil {
		return
	}
	s.jobs.Add(1)
	if move {
		s.moves.Add(1)
	}
}

// RecordMerge adds a job's merge time: its pass less the build's node
// sealing and the ship.
func (s *CompactionStats) RecordMerge(d time.Duration) {
	if s == nil {
		return
	}
	s.mergeNanos.Add(int64(d))
}

// RecordBuild adds a job's build time: the time its builder spent
// sealing nodes (btree.Builder.SealTime).
func (s *CompactionStats) RecordBuild(d time.Duration) {
	if s == nil {
		return
	}
	s.buildNanos.Add(int64(d))
}

// RecordShip adds the time one segment spent in the listener. early
// reports whether the builder emitted the segment before its job called
// Finish — a ship in the middle of the build.
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
		Moves:                s.moves.Load(),
		MergeTime:            time.Duration(s.mergeNanos.Load()),
		BuildTime:            time.Duration(s.buildNanos.Load()),
		ShipTime:             time.Duration(s.shipNanos.Load()),
		SegmentsShipped:      s.segsShipped.Load(),
		SegmentsShippedEarly: s.segsEarly.Load(),
		WriterStalls:         s.stalls.Load(),
		WriterStallTime:      time.Duration(s.stallNanos.Load()),
	}
}

// Collect implements Source: merge, build (node sealing) and ship time
// (Figure 9's stages), the early-ship split, and writer stalls (the paper's L0
// backpressure signal).
func (s *CompactionStats) Collect() []Family {
	if s == nil {
		return nil
	}
	sn := s.Snapshot()
	return []Family{
		Counter("tebis_compaction_jobs_total",
			"Compaction jobs completed by the scheduler.",
			Labeled("kind", "merge", float64(sn.Jobs-sn.Moves)),
			Labeled("kind", "move", float64(sn.Moves))),
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
	// Jobs counts completed compaction jobs, moves included.
	Jobs uint64
	// Moves counts the jobs that moved their source level into an empty
	// destination instead of merging (lsm's trivial move).
	Moves uint64
	// MergeTime, BuildTime and ShipTime split a job's pass, which runs
	// on one goroutine, and sum to it: ShipTime is the time segments
	// spent in the listener, BuildTime the builder's node sealing —
	// placing sealed nodes and writing their segments — and MergeTime
	// the rest.
	MergeTime time.Duration
	BuildTime time.Duration
	ShipTime  time.Duration
	// SegmentsShipped counts index segments handed to the listener.
	SegmentsShipped uint64
	// SegmentsShippedEarly counts segments the builder emitted, and the
	// listener took, before their job called Finish.
	SegmentsShippedEarly uint64
	// WriterStalls counts writers that blocked on a full L0 while the
	// frozen one was still compacting.
	WriterStalls uint64
	// WriterStallTime is the total time writers spent blocked.
	WriterStallTime time.Duration
}

// OverlapFraction is the fraction of shipped segments emitted before
// their build's Finish (1.0 = fully streamed, 0 = ship-after-build).
func (s CompactionSnapshot) OverlapFraction() float64 {
	if s.SegmentsShipped == 0 {
		return 0
	}
	return float64(s.SegmentsShippedEarly) / float64(s.SegmentsShipped)
}
