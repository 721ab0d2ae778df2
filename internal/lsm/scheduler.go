package lsm

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"tebis/internal/btree"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// compactionJob is one planned unit of compaction work: merge srcLevel
// into dstLevel (for L0 jobs, merge one frozen memtable into L1). Jobs
// are planned under db.mu by planJobLocked and executed by their own
// goroutine; the scheduler never plans two jobs over conflicting levels.
type compactionJob struct {
	id       uint64
	srcLevel int
	dstLevel int

	// frozen is the L0 table an L0 job drains (nil for level jobs). It
	// is always db.frozen[0] at planning time; the install step pops it.
	frozen *frozenL0

	// emptyDst makes an L0 job merge its frozen table alone, without
	// reading L1 — chosen when an L1×L2 job is in flight (L1 is being
	// drained, so the L0 job must not read it). The job's install then
	// waits until that L1×L2 job has emptied L1.
	emptyDst bool
}

// maybeScheduleLocked plans and launches compaction jobs until either
// the worker pool is full or nothing conflict-free is runnable. Caller
// holds db.mu. It is invoked wherever work may have appeared (a freeze,
// a finished job) or capacity may have freed up.
func (db *DB) maybeScheduleLocked() {
	if db.closed || db.bgErr != nil || db.exclusive {
		return
	}
	for len(db.inflight) < db.opt.CompactionWorkers {
		job := db.planJobLocked()
		if job == nil {
			return
		}
		db.inflight[job.id] = job
		go db.runJob(job)
	}
}

// planJobLocked picks the next conflict-free compaction job, or nil.
// Caller holds db.mu. L0 drains take priority (they unblock writers);
// then the shallowest over-capacity level is cascaded. A level is busy
// while any in-flight job reads or writes it.
func (db *DB) planJobLocked() *compactionJob {
	if len(db.frozen) > 0 && !db.levelBusyLocked(0) {
		job := &compactionJob{
			id:       db.nextJobID,
			srcLevel: 0,
			dstLevel: 1,
			frozen:   db.frozen[0],
		}
		// If an L1×L2 job is draining L1, the L0 job may still run —
		// the paper's key overlap — but it must build from the frozen
		// table alone and install only after L1 empties.
		for _, other := range db.inflight {
			if other.srcLevel == 1 {
				job.emptyDst = true
				break
			}
		}
		if !job.emptyDst && db.levelBusyLocked(1) {
			// L1 is the *destination* of some other job (can't happen
			// today — only L0 jobs write L1 and they conflict on L0 —
			// but guard against future planners).
			return nil
		}
		db.nextJobID++
		return job
	}
	for i := 1; i < len(db.levels)-1; i++ {
		if db.levels[i].numKeys() <= db.capacity(i) {
			continue
		}
		if db.levelBusyLocked(i) || db.levelBusyLocked(i+1) {
			continue
		}
		job := &compactionJob{id: db.nextJobID, srcLevel: i, dstLevel: i + 1}
		db.nextJobID++
		return job
	}
	return nil
}

// levelBusyLocked reports whether any in-flight job reads or writes
// level i. An L0 job with emptyDst set still occupies its dstLevel: its
// install will write L1, so L1 may not be merged downward meanwhile by
// a *new* job (the pre-existing L1×L2 job is ordered via install-wait).
func (db *DB) levelBusyLocked(i int) bool {
	for _, job := range db.inflight {
		if job.srcLevel == i || job.dstLevel == i {
			return true
		}
	}
	return false
}

// runJob executes one scheduled job on its own goroutine and then
// retires it, waking waiters and re-planning. Every exit path — success
// or failure — removes the job from the in-flight set and broadcasts,
// so writers stalled in freezeLocked and WaitIdle callers can never
// miss the wakeup.
func (db *DB) runJob(job *compactionJob) {
	err := db.executeJob(job)
	db.mu.Lock()
	delete(db.inflight, job.id)
	db.cond.Broadcast()
	if err == nil {
		db.maybeScheduleLocked()
	}
	db.mu.Unlock()
	if err != nil {
		db.fail(err)
	}
}

// executeJob runs one compaction job: announce, pipeline (merge →
// build → ship), install, free replaced segments, notify.
func (db *DB) executeJob(job *compactionJob) error {
	ref := CompactionJob{ID: job.id, SrcLevel: job.srcLevel, DstLevel: job.dstLevel}
	if l := db.getListener(); l != nil {
		l.OnCompactionStart(ref)
	}

	var src, dst cursor = &emptyCursor{}, &emptyCursor{}
	var oldSrc, oldDst *level
	var err error
	if job.srcLevel == 0 {
		src = &memCursor{it: job.frozen.mt.Iter()}
	} else if src, oldSrc, err = db.levelCursor(job.srcLevel); err != nil {
		return err
	}
	if !job.emptyDst {
		if dst, oldDst, err = db.levelCursor(job.dstLevel); err != nil {
			return err
		}
	}

	built, err := db.pipeline(ref, src, dst)
	if err != nil {
		return err
	}

	db.mu.Lock()
	var watermark storage.Offset
	if job.srcLevel == 0 {
		if job.emptyDst {
			// An L1×L2 job was draining L1 when this job was planned.
			// Installing the freshly built table as the new L1 is only
			// correct once that job has emptied L1; wait for it. Only
			// L0 jobs ever wait here and L1×L2 jobs never do, so this
			// cannot deadlock.
			for db.bgErr == nil && !db.closed && db.otherJobDrainsLocked(job) {
				db.cond.Wait()
			}
			if db.bgErr != nil || db.closed {
				err := db.bgErr
				db.mu.Unlock()
				if err == nil {
					err = ErrClosed
				}
				// The built tree will never be installed; release it.
				db.freeBuilt(built)
				return err
			}
			oldDst = db.levels[job.dstLevel] // normally nil after the drain
		}
		db.installLevel(job.dstLevel, built)
		if len(db.frozen) > 0 && db.frozen[0] == job.frozen {
			db.frozen = db.frozen[1:]
		}
		db.watermark = job.frozen.mark
		watermark = job.frozen.mark
	} else {
		db.installLevel(job.dstLevel, built)
		db.levels[job.srcLevel] = nil
		watermark = db.watermark
	}
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

// otherJobDrainsLocked reports whether a different in-flight job is
// still merging this job's destination level downward. Caller holds
// db.mu.
func (db *DB) otherJobDrainsLocked(job *compactionJob) bool {
	for _, other := range db.inflight {
		if other != job && other.srcLevel == job.dstLevel {
			return true
		}
	}
	return false
}

// freeBuilt releases the segments of a tree that will never be
// installed (abandoned by a job that lost its install-wait).
func (db *DB) freeBuilt(built btree.Built) {
	for _, seg := range built.Segments {
		_ = db.dev.Free(seg)
	}
}

// errPipelineAborted marks a stage killed by a sibling stage's error;
// the sibling's (root-cause) error is reported instead.
var errPipelineAborted = errors.New("lsm: compaction pipeline aborted")

// mergeBatch is how many merged entries the merge stage hands the build
// stage at once: the stages synchronise once a batch, not once an entry.
const mergeBatch = 256

// pipeline runs one job's three stages concurrently, connected by
// channels (§3.3's Send-Index streaming): the merge stage feeds sorted
// entries to the build stage in batches, and the build stage emits
// sealed index segments to the ship stage, which hands them to the
// listener while merge and build are still running. Two batch buffers
// circulate — the merge stage fills one while the build stage drains the
// other and hands it back through spare — and the small segs buffer
// applies back-pressure so a slow shipper throttles the build instead of
// queueing unbounded data.
func (db *DB) pipeline(ref CompactionJob, src, dst cursor) (btree.Built, error) {
	dropTombstones := ref.DstLevel == len(db.levels)-1

	bufs := make([]mergedEntry, 2*mergeBatch) // the two batch buffers
	entries := make(chan []mergedEntry, 1)
	spare := make(chan []mergedEntry, 2) // never full: two buffers exist
	spare <- bufs[mergeBatch:mergeBatch]
	segs := make(chan btree.EmittedSegment, 2)
	abort := make(chan struct{})
	var abortOnce sync.Once
	cancel := func() { abortOnce.Do(func() { close(abort) }) }

	var (
		wg        sync.WaitGroup
		mergeErr  error
		buildErr  error
		built     btree.Built
		buildDone atomic.Bool
	)

	// Stage 1: merge iteration.
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		batch := bufs[:0:mergeBatch]
		// send hands batch to the build stage and takes the spare buffer.
		send := func() error {
			select {
			case entries <- batch:
			case <-abort:
				return errPipelineAborted
			}
			select {
			case batch = <-spare:
				return nil
			case <-abort:
				return errPipelineAborted
			}
		}
		mergeErr = db.mergeStream(src, dst, func(e mergedEntry) error {
			batch = append(batch, e)
			if len(batch) == mergeBatch {
				return send()
			}
			return nil
		})
		if mergeErr == nil && len(batch) > 0 {
			mergeErr = send()
		}
		close(entries) // happens-after the mergeErr store
		db.stats.RecordMerge(time.Since(start))
		db.trace.Record(obs.Span{
			Cat: "compaction", Name: "merge", JobID: ref.ID,
			Start: start, Dur: time.Since(start),
		})
		if mergeErr != nil {
			cancel()
		}
	}()

	// Stage 2: segment-serialized B+-tree build.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(segs)
		defer buildDone.Store(true)
		start := time.Now()
		defer func() {
			db.stats.RecordBuild(time.Since(start))
			db.trace.Record(obs.Span{
				Cat: "compaction", Name: "build", JobID: ref.ID,
				Start: start, Dur: time.Since(start),
			})
		}()
		emit := func(es btree.EmittedSegment) error {
			db.charge(metrics.CompCompaction, db.cost.WriteIO(len(es.Data)))
			select {
			case segs <- es:
				return nil
			case <-abort:
				return errPipelineAborted
			}
		}
		b, err := btree.NewBuilder(db.dev, db.opt.NodeSize, emit)
		if err != nil {
			buildErr = err
			cancel()
			return
		}
		// The builder reads a key the merge did not: each leaf's pivot
		// and any prefix tie inside one source.
		fullKey := func(off storage.Offset) ([]byte, error) {
			return db.readKey(off, metrics.CompCompaction)
		}
		deadHdr := make([]byte, vlog.HeaderSize) // recordDead's scratch for this stage
		for batch := range entries {
			for _, e := range batch {
				if e.Tombstone && dropTombstones {
					// The tombstone reached the last level: its log record
					// will never be consulted again, so its bytes are dead.
					db.recordDead(e.ValueOff, deadHdr)
					continue
				}
				if err := b.AddEntry(e.LeafEntry, e.key, fullKey); err != nil {
					buildErr = err
					// The merge stage's sends and takes select on abort,
					// so it never waits for a buffer this stage keeps.
					cancel()
					return
				}
			}
			clear(batch) // pin no keys while the buffer waits
			spare <- batch[:0]
		}
		// entries is closed: the merge goroutine has already stored
		// mergeErr (channel close is the synchronization point).
		if mergeErr != nil {
			return
		}
		built, buildErr = b.Finish()
		if buildErr != nil {
			cancel()
		}
	}()

	// Stage 3: Send-Index shipping.
	wg.Add(1)
	go func() {
		defer wg.Done()
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

	wg.Wait()

	for _, err := range []error{mergeErr, buildErr} {
		if err != nil && !errors.Is(err, errPipelineAborted) {
			return btree.Built{}, err
		}
	}
	for _, err := range []error{mergeErr, buildErr} {
		if err != nil {
			return btree.Built{}, err
		}
	}
	return built, nil
}
