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

// executeJob runs one compaction job: announce, pipeline (merge →
// build → ship), install, free replaced segments, notify.
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

// errPipelineAborted marks a stage killed by a sibling stage's error;
// the sibling's (root-cause) error is reported instead.
var errPipelineAborted = errors.New("lsm: compaction pipeline aborted")

// mergeBatch is how many merged entries the merge stage hands the build
// stage at once: the stages synchronise once a batch, not once an entry.
const mergeBatch = 256

// entryBatch is one hand-off from the merge stage to the build stage:
// the entries, and the arena the keys the merge lent them were copied
// into. Keys in the arena are never written again before the batch
// comes back empty, though the arena may grow past them.
type entryBatch struct {
	entries []mergedEntry
	keys    []byte
}

// add appends e, copying a lent key into the batch's arena.
func (b *entryBatch) add(e mergedEntry) {
	if e.lent {
		start := len(b.keys)
		b.keys = append(b.keys, e.key...)
		e.key, e.lent = b.keys[start:len(b.keys):len(b.keys)], false
	}
	b.entries = append(b.entries, e)
}

// empty readies b for the next batch, keeping its memory and pinning
// no key.
func (b *entryBatch) empty() {
	clear(b.entries)
	b.entries, b.keys = b.entries[:0], b.keys[:0]
}

// keyReader is the build stage's btree.FullKeyReader. Builder.AddEntry
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

// pipeline runs one job's three stages concurrently, connected by
// channels (§3.3's Send-Index streaming): the merge stage feeds sorted
// entries to the build stage in batches, and the build stage emits
// sealed index segments to the ship stage, which hands them to the
// listener while merge and build are still running. Two batches
// circulate — the merge stage fills one while the build stage drains the
// other and hands it back through spare — and the small segs buffer
// applies back-pressure so a slow shipper throttles the build instead of
// queueing unbounded data.
func (db *DB) pipeline(ref CompactionJob, src, dst cursor) (btree.Built, error) {
	dropTombstones := ref.DstLevel == len(db.levels)-1

	var batches [2]entryBatch
	for i := range batches {
		batches[i].entries = make([]mergedEntry, 0, mergeBatch)
	}
	entries := make(chan *entryBatch, 1)
	spare := make(chan *entryBatch, 2) // never full: two batches exist
	spare <- &batches[1]
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
		batch := &batches[0]
		// send hands batch to the build stage and takes the spare one.
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
			batch.add(e)
			if len(batch.entries) == mergeBatch {
				return send()
			}
			return nil
		})
		if mergeErr == nil && len(batch.entries) > 0 {
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
		if ref.Filter {
			filter := db.filterBufs.Take()
			defer db.filterBufs.Give(filter)
			b.SetFilterCollector(filter)
		}
		// The builder reads a key the merge did not: each leaf's pivot
		// and any prefix tie inside one source.
		keys := &keyReader{db: db}
		deadHdr := make([]byte, vlog.HeaderSize) // recordDead's scratch for this stage
		for batch := range entries {
			for _, e := range batch.entries {
				if e.Tombstone && dropTombstones {
					// The tombstone reached the last level: its log record
					// will never be consulted again, so its bytes are dead.
					db.recordDead(e.ValueOff, deadHdr)
					continue
				}
				if err := b.AddEntry(e.LeafEntry, e.key, keys.read); err != nil {
					buildErr = err
					// The merge stage's sends and takes select on abort,
					// so it never waits for a buffer this stage keeps.
					cancel()
					return
				}
			}
			batch.empty()
			spare <- batch
		}
		// entries is closed: the merge goroutine has already stored
		// mergeErr (channel close is the synchronization point).
		if mergeErr != nil {
			return
		}
		built, buildErr = b.Finish()
		if buildErr != nil {
			cancel()
			return
		}
		if ref.Filter {
			// Every entry the builder took was hashed into the filter.
			db.charge(metrics.CompCompaction, uint64(built.NumKeys)*db.cost.FilterPerKey)
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
