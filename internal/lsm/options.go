// Package lsm implements the Kreon-style LSM key-value engine each Tebis
// region runs: an in-memory L0 memtable over a KV-separated value log,
// with on-device levels organized as segment-serialized B+ trees
// (§2, "Kreon").
//
// Compactions merge level Li into Li+1, building the new L'i+1 index
// bottom-up and left-to-right. One background compactor runs them one
// at a time, as the paper's engine does, and one frozen L0 waits for it
// at most. A job merges and builds on one goroutine and ships each
// sealed index segment from a second, while the build goes on. The
// engine reports every step of a compaction to an optional
// Listener — log appends, emitted index segments, and compaction
// completion — which is exactly the interface the Send-Index
// replication protocol hangs off (§3.3).
package lsm

import (
	"tebis/internal/btree"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// Default engine parameters; tests and benchmarks scale them down.
const (
	// DefaultGrowthFactor is the level growth factor f. The paper uses
	// f=4, which minimizes I/O amplification.
	DefaultGrowthFactor = 4
	// DefaultL0MaxKeys matches the paper's 96K-key L0.
	DefaultL0MaxKeys = 96_000
	// DefaultMaxLevels bounds the on-device levels (L1..).
	DefaultMaxLevels = 8
	// DefaultNodeSize is the B+-tree node block size.
	DefaultNodeSize = 4096
)

// CompactionJob identifies one scheduled compaction. IDs are unique per
// DB and strictly increasing in planning order. One job is in flight at
// a time; the ID still travels with every event, because a backup
// checks it against the job it has staged and must tell a retried job's
// segments from the last attempt's.
type CompactionJob struct {
	// ID is the engine-unique job identifier.
	ID uint64
	// SrcLevel is the level being merged down (0 = the in-memory L0).
	SrcLevel int
	// DstLevel is the level receiving the merge (SrcLevel+1).
	DstLevel int
	// Filter says the job builds the prefix filter of the level it
	// installs; a job into the deepest level holding keys builds none.
	Filter bool
}

// CompactionResult describes a finished compaction, as delivered to the
// Listener and to WaitIdle callers.
type CompactionResult struct {
	// JobID is the finished job's identifier (CompactionJob.ID).
	JobID uint64
	// SrcLevel is the level that was merged down (0 = the in-memory L0).
	SrcLevel int
	// DstLevel is the level that received the merge (SrcLevel+1).
	DstLevel int
	// Built is the new L'dst tree in the primary's device space.
	Built btree.Built
	// Watermark is the value-log offset below which all data is covered
	// by on-device levels after this compaction (only advances for
	// L0→L1 merges). A promoted backup replays the log from here (§3.5).
	Watermark storage.Offset
}

// Listener observes engine events the replication layer needs. OnAppend
// is invoked synchronously from the Put path (in log-append order). The
// compaction callbacks are invoked from compaction job goroutines: within
// one job, OnCompactionStart precedes every OnIndexSegment (emitted in
// build order) which all precede OnCompactionDone, and a job's
// OnCompactionDone fires before the next job's OnCompactionStart — the
// events of two jobs never interleave. A nil listener disables all
// callbacks.
//
// Error contract: callbacks have no error return and must not block
// indefinitely — the ship goroutine of a compaction waits inside them, so a
// wedged callback wedges the job, the one compactor and, once L0 fills
// again, the writers.
// Replication failures are the listener's problem to absorb: the
// replica.Primary implementation bounds every backup interaction with a
// timeout/retry policy and evicts unresponsive backups, letting the
// compaction complete on the survivors rather than failing the job.
type Listener interface {
	// OnAppend fires after a record lands in the value log and before
	// it is inserted into L0 — the point where the primary RDMA-writes
	// the record into each backup's buffer (§3.2 step 1) and, when
	// res.Sealed is non-nil, first tells backups to flush (step 2b).
	// rt is the sampled request's span context (nil for unsampled
	// writes); the replication layer records per-backup ship/ack spans
	// under it.
	OnAppend(res vlog.AppendResult, rt *obs.ReqTrace)
	// OnCompactionStart fires before a compaction job begins merging.
	OnCompactionStart(job CompactionJob)
	// OnIndexSegment fires for every sealed index/leaf segment of the
	// new L'dst, in build order — the Send-Index shipping hook. It is
	// called from the job's ship goroutine, concurrently with the
	// ongoing merge and build of the same job.
	OnIndexSegment(job CompactionJob, seg btree.EmittedSegment)
	// OnCompactionDone fires after the new level is installed, carrying
	// the new root (primary device space) for backup root translation.
	OnCompactionDone(res CompactionResult)
	// OnSeal fires, under the engine lock, after GC force-sealed a
	// partial log tail — the commit point of a relocation pass. The
	// replication layer reacts like a natural seal (OnAppend with
	// Sealed set): every backup persists its mirrored log buffer, so
	// the relocated records are durable on all replicas before any
	// victim segment is released.
	OnSeal(sealed *vlog.Sealed)
	// OnRelease fires after GC freed victim segments anywhere in the
	// log (§4: the primary moves, backups only free). segs are
	// primary-space segment IDs; backups translate them through their
	// log maps and free the local copies, keeping the replicas
	// byte-convergent. Backups skip unknown segments, so delivery is
	// idempotent under crash-retry.
	OnRelease(segs []storage.SegmentID)
}

// Options configures a DB.
type Options struct {
	// Device is the storage device; required.
	Device storage.Device
	// NodeSize is the B+-tree node size (DefaultNodeSize if zero).
	NodeSize int
	// GrowthFactor is f (DefaultGrowthFactor if zero).
	GrowthFactor int
	// L0MaxKeys caps the in-memory level (DefaultL0MaxKeys if zero).
	L0MaxKeys int
	// MaxLevels bounds on-device levels (DefaultMaxLevels if zero).
	MaxLevels int
	// Seed is inert: it fixed the shape of the skiplist L0 once was, and
	// stays while benchmark/ sets it (ROADMAP item 18).
	Seed int64
	// Listener receives replication hooks; may be nil.
	Listener Listener
	// Cycles receives simulated CPU charges; may be nil.
	Cycles *metrics.Cycles
	// Cost is the cycle cost model (DefaultCostModel if zero).
	Cost metrics.CostModel
	// CompactionStats receives merge, build and ship timings and
	// writer-stall accounting; if nil the DB allocates a private sink
	// (readable via DB.CompactionStats).
	CompactionStats *metrics.CompactionStats
	// Trace records per-compaction merge/build/ship spans keyed by the
	// scheduler's job IDs; may be nil (spans are dropped).
	Trace *obs.Tracer
}

func (o *Options) applyDefaults() {
	if o.NodeSize == 0 {
		o.NodeSize = DefaultNodeSize
	}
	if o.GrowthFactor == 0 {
		o.GrowthFactor = DefaultGrowthFactor
	}
	if o.L0MaxKeys == 0 {
		o.L0MaxKeys = DefaultL0MaxKeys
	}
	if o.MaxLevels == 0 {
		o.MaxLevels = DefaultMaxLevels
	}
	if o.Cost == (metrics.CostModel{}) {
		o.Cost = metrics.DefaultCostModel()
	}
}

// MaxLevelsOrDefault returns MaxLevels with the default applied, for
// callers that size level arrays before constructing a DB.
func (o Options) MaxLevelsOrDefault() int {
	if o.MaxLevels == 0 {
		return DefaultMaxLevels
	}
	return o.MaxLevels
}

// LevelState is a snapshot of one on-device level, used for promotion
// hand-off between the replication layer and a fresh DB.
type LevelState struct {
	// Root is the level's B+-tree root (NilOffset if empty).
	Root storage.Offset
	// Segments lists the device segments the level owns.
	Segments []storage.SegmentID
	// NumKeys counts the level's leaf entries.
	NumKeys int
	// Filter is the level's prefix filter, which a lookup tests before
	// it walks the tree. It is never written once built, so states
	// share it. Nil walks the level on every lookup.
	Filter *btree.Filter
}
