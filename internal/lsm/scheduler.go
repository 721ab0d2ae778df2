package lsm

import (
	"sync/atomic"
	"time"

	"tebis/internal/btree"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// compactionJob is one planned unit of compaction work: merge srcLevel
// into dstLevel (for an L0 job, merge the frozen memtable into L1). The
// engine has one compactor, as the paper's has: a job is planned under
// db.mu only while none is in flight, and runs on a goroutine of its own.
type compactionJob struct {
	id       uint64
	srcLevel int
	dstLevel int

	// frozen is the L0 table an L0 job drains (nil for level jobs): the
	// engine's one frozen table, which the install step releases.
	frozen *frozenL0

	// filter makes the job build its level's prefix filter
	// (filterLocked).
	filter bool
}

// maybeScheduleLocked plans and launches the next compaction job when
// none is in flight. Caller holds db.mu. It is invoked wherever work
// may have appeared (a freeze, a finished job, the end of a hold).
func (db *DB) maybeScheduleLocked() {
	if db.closed || db.bgErr != nil || db.exclusive || db.job != nil {
		return
	}
	if job := db.planJobLocked(); job != nil {
		db.job = job
		go db.runJob(job)
	}
}

// planJobLocked picks the next compaction job, or nil: the frozen L0
// first (draining it unblocks writers), else the shallowest level over
// capacity, cascaded into the next. Caller holds db.mu.
func (db *DB) planJobLocked() *compactionJob {
	src := 0
	if db.frozen == nil {
		last := len(db.levels) - 1
		for src = 1; src < last && db.levels[src].numKeys() <= db.capacity(src); src++ {
		}
		if src == last {
			return nil
		}
	}
	job := &compactionJob{
		id:       db.nextJobID,
		srcLevel: src,
		dstLevel: src + 1,
		frozen:   db.frozen,
		filter:   db.filterLocked(src + 1),
	}
	db.nextJobID++
	return job
}

// filterLocked reports whether a job into level dst builds the level's
// prefix filter: it does while a level deeper than dst holds keys. A
// level built as the deepest that holds keys gets none: a get of a key
// the engine holds that reaches that level finds the key there, filter
// or not, so its filter could turn away only gets of keys the engine
// does not hold — and its entries are about half of every entry the
// compactions build (48 % on the benchmark's YCSB load). No other job
// is in flight when one is planned, so the levels are all there is to
// look at. Caller holds db.mu.
func (db *DB) filterLocked(dst int) bool {
	for i := dst + 1; i < len(db.levels); i++ {
		if db.levels[i].numKeys() > 0 {
			return true
		}
	}
	return false
}

// runJob executes the scheduled job on its own goroutine and then
// retires it, waking waiters and planning the next. Every exit path —
// success or failure — clears the in-flight job and broadcasts, so
// writers stalled in freezeLocked and WaitIdle callers can never miss
// the wakeup.
func (db *DB) runJob(job *compactionJob) {
	err := db.executeJob(job)
	db.mu.Lock()
	db.job = nil
	db.cond.Broadcast()
	if err == nil {
		db.maybeScheduleLocked()
	}
	db.mu.Unlock()
	if err != nil {
		db.fail(err)
	}
}

// executeJob runs one compaction job: announce, pipeline (merge and
// build, with ship streaming beside them), install, free replaced
// segments, notify.
func (db *DB) executeJob(job *compactionJob) error {
	ref := CompactionJob{ID: job.id, SrcLevel: job.srcLevel, DstLevel: job.dstLevel, Filter: job.filter}
	if l := db.getListener(); l != nil {
		l.OnCompactionStart(ref)
	}

	var src cursor
	var oldSrc *level
	var err error
	if job.frozen != nil {
		src = &memCursor{it: job.frozen.mt.Iter()}
	} else if src, oldSrc, err = db.levelCursor(job.srcLevel); err != nil {
		return err
	}
	dst, oldDst, err := db.levelCursor(job.dstLevel)
	if err != nil {
		return err
	}

	built, err := db.pipeline(ref, src, dst)
	if err != nil {
		return err
	}

	db.mu.Lock()
	db.installLevel(job.dstLevel, built)
	if job.frozen != nil {
		db.frozen = nil
		db.watermark = job.frozen.mark
	} else {
		db.levels[job.srcLevel] = nil
	}
	watermark := db.watermark
	db.cond.Broadcast()
	db.mu.Unlock()

	if err := db.freeLevel(oldSrc); err != nil {
		return err
	}
	if err := db.freeLevel(oldDst); err != nil {
		return err
	}
	db.notifyDone(CompactionResult{
		JobID:     job.id,
		SrcLevel:  job.srcLevel,
		DstLevel:  job.dstLevel,
		Built:     built,
		Watermark: watermark,
	})
	db.stats.RecordJob()
	return nil
}

// keyReader is the builder's btree.FullKeyReader. Builder.AddEntry
// keeps one key across its next read, so two buffers read into by turns
// are enough for every key a job's build reads.
type keyReader struct {
	db   *DB
	bufs [2][]byte
	turn int
}

func (kr *keyReader) read(off storage.Offset) ([]byte, error) {
	kr.turn ^= 1
	key, err := kr.db.appendKey(kr.bufs[kr.turn], off, metrics.CompCompaction)
	kr.bufs[kr.turn] = key[:0]
	return key, err
}

// pipeline runs one job as §3.3's compaction thread does: the merge
// hands each entry straight to the bottom-up builder on the calling
// goroutine, and one shipping goroutine hands each sealed segment to the
// listener while the build goes on (Send-Index streaming). The builder
// copies every key it keeps, so a key the merge lends it — a cursor's
// buffer — needs no copy of its own. The segs buffer holds two segments,
// so a slow shipper throttles the build instead of queueing unbounded
// data. Merge and build stay separately accounted: the build's time is
// the builder's node sealing (Builder.SealTime), the merge's the rest of
// the pass.
func (db *DB) pipeline(ref CompactionJob, src, dst cursor) (btree.Built, error) {
	segs := make(chan btree.EmittedSegment, 2)
	b, err := btree.NewBuilder(db.dev, db.opt.NodeSize, func(es btree.EmittedSegment) error {
		db.charge(metrics.CompCompaction, db.cost.WriteIO(len(es.Data)))
		segs <- es
		return nil
	})
	if err != nil {
		return btree.Built{}, err
	}
	if ref.Filter {
		filter := db.filterBufs.Take()
		defer db.filterBufs.Give(filter)
		b.SetFilterCollector(filter)
	}

	var buildDone atomic.Bool
	shipped := make(chan struct{})
	go func() {
		defer close(shipped)
		l := db.getListener()
		for es := range segs {
			early := !buildDone.Load()
			start := time.Now()
			if l != nil {
				l.OnIndexSegment(ref, es)
			}
			db.stats.RecordShip(time.Since(start), early)
			db.trace.Record(obs.Span{
				Cat: "compaction", Name: "ship", JobID: ref.ID,
				Bytes: int64(len(es.Data)),
				Start: start, Dur: time.Since(start),
			})
		}
	}()

	start := time.Now()
	dropTombstones := ref.DstLevel == len(db.levels)-1
	// The builder reads a key the merge did not: each leaf's pivot and
	// any prefix tie inside one source.
	keys := &keyReader{db: db}
	deadHdr := make([]byte, vlog.HeaderSize) // recordDead's scratch for the dropped tombstones
	err = db.mergeStream(src, dst, func(e mergedEntry) error {
		if e.Tombstone && dropTombstones {
			// The tombstone reached the last level: its log record will
			// never be consulted again, so its bytes are dead.
			db.recordDead(e.ValueOff, deadHdr)
			return nil
		}
		return b.AddEntry(e.LeafEntry, e.key, keys.read)
	})
	var built btree.Built
	if err == nil {
		built, err = b.Finish()
	}
	if err == nil && ref.Filter {
		// Every entry the builder took was hashed into the filter.
		db.charge(metrics.CompCompaction, uint64(built.NumKeys)*db.cost.FilterPerKey)
	}
	buildDone.Store(true)
	close(segs)

	// The two interleave on one goroutine, so their spans lay the split
	// end to end: the merge's share of the pass, then the build's.
	pass, seal := time.Since(start), b.SealTime()
	db.stats.RecordMerge(pass - seal)
	db.stats.RecordBuild(seal)
	db.trace.Record(obs.Span{Cat: "compaction", Name: "merge", JobID: ref.ID, Start: start, Dur: pass - seal})
	db.trace.Record(obs.Span{Cat: "compaction", Name: "build", JobID: ref.ID, Start: start.Add(pass - seal), Dur: seal})
	<-shipped
	if err != nil {
		return btree.Built{}, err
	}
	return built, nil
}
