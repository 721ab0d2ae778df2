package lsm

import (
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

	// move makes the job install the source level at dstLevel as it is,
	// instead of merging it into an empty destination (newJobLocked).
	move bool
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
	if db.frozen != nil {
		return db.newJobLocked(0)
	}
	last := len(db.levels) - 1
	src := 1
	for ; src < last && db.levels[src].numKeys() <= db.capacity(src); src++ {
	}
	if src == last {
		return nil
	}
	return db.newJobLocked(src)
}

// newJobLocked plans the job of level src into src+1 (of the frozen L0
// into L1 for src 0). A job whose source is a device level and whose
// destination is empty is a move: the merge would rebuild the source
// entry for entry, so the job installs the source level — tree, segment
// chain and filter — at the destination instead, and nothing is read,
// built, written or shipped (the "trivial move" of LevelDB). Two jobs
// stay merges: one into the last level, whose merge drops tombstones,
// and one whose destination needs a filter the source lacks — which
// filterLocked's rule never makes, since every level deeper than the
// destination got its keys through the source, before the source was
// built. Caller holds db.mu.
func (db *DB) newJobLocked(src int) *compactionJob {
	dst := src + 1
	job := &compactionJob{
		id:       db.nextJobID,
		srcLevel: src,
		dstLevel: dst,
		filter:   db.filterLocked(dst),
	}
	db.nextJobID++
	if src == 0 {
		job.frozen = db.frozen
		return job
	}
	lv := db.levels[src]
	job.move = db.levels[dst] == nil && dst < len(db.levels)-1 &&
		(lv.built.Filter != nil || !job.filter)
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

// executeJob runs one compaction job: announce, pipeline (merge, build
// and ship each segment as it seals), install, free replaced segments,
// notify. A move job installs its source level at the destination and
// notifies, and does nothing else.
func (db *DB) executeJob(job *compactionJob) error {
	ref := CompactionJob{ID: job.id, SrcLevel: job.srcLevel, DstLevel: job.dstLevel, Filter: job.filter, Move: job.move}
	if l := db.getListener(); l != nil {
		l.OnCompactionStart(ref)
	}
	if job.move {
		db.moveLevel(job)
		return nil
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
	db.stats.RecordJob(false)
	return nil
}

// moveLevel runs a move job: the source level becomes the destination,
// the same tree over the same segments with the same filter. No data
// changes level relative to any other, so the watermark stays, and the
// listener hears the job's start and its done, with nothing between.
func (db *DB) moveLevel(job *compactionJob) {
	db.mu.Lock()
	lv := db.levels[job.srcLevel]
	db.levels[job.dstLevel], db.levels[job.srcLevel] = lv, nil
	watermark := db.watermark
	db.cond.Broadcast()
	db.mu.Unlock()
	db.notifyDone(CompactionResult{
		JobID:     job.id,
		SrcLevel:  job.srcLevel,
		DstLevel:  job.dstLevel,
		Built:     lv.built,
		Watermark: watermark,
		Moved:     true,
	})
	db.stats.RecordJob(true)
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

// pipeline runs one job as §3.3's compaction thread does, on the calling
// goroutine: the merge hands each entry straight to the bottom-up
// builder, and the builder's emit hands each sealed segment to the
// listener before the build goes on (Send-Index streaming). The builder
// copies every key it keeps, so a key the merge lends it — a cursor's
// buffer — needs no copy of its own. The stages are accounted apart and
// sum to the pass: the ship is one clock pair around each listener call,
// the build the builder's node sealing (Builder.SealTime, which stops
// before emit), and the merge the rest.
func (db *DB) pipeline(ref CompactionJob, src, dst cursor) (btree.Built, error) {
	l := db.getListener()
	var ship time.Duration
	finishing := false // a segment emitted before Finish ships early
	b, err := btree.NewBuilder(db.dev, db.opt.NodeSize, func(es btree.EmittedSegment) error {
		db.charge(metrics.CompCompaction, db.cost.WriteIO(len(es.Data)))
		start := time.Now()
		if l != nil {
			l.OnIndexSegment(ref, es)
		}
		d := time.Since(start)
		ship += d
		db.stats.RecordShip(d, !finishing)
		db.trace.Record(obs.Span{Cat: "compaction", Name: "ship", JobID: ref.ID, Bytes: int64(len(es.Data)), Start: start, Dur: d})
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
		finishing = true
		built, err = b.Finish()
	}
	if err == nil && ref.Filter {
		// Every entry the builder took was hashed into the filter.
		db.charge(metrics.CompCompaction, uint64(built.NumKeys)*db.cost.FilterPerKey)
	}

	// The stages interleave on one goroutine. The ship spans sit where
	// they ran; the merge's and the build's lay their shares of the rest
	// of the pass end to end.
	pass, seal := time.Since(start), b.SealTime()
	merge := pass - seal - ship
	db.stats.RecordMerge(merge)
	db.stats.RecordBuild(seal)
	db.trace.Record(obs.Span{Cat: "compaction", Name: "merge", JobID: ref.ID, Start: start, Dur: merge})
	db.trace.Record(obs.Span{Cat: "compaction", Name: "build", JobID: ref.ID, Start: start.Add(merge), Dur: seal})
	if err != nil {
		return btree.Built{}, err
	}
	return built, nil
}
