package lsm

import (
	"fmt"

	"tebis/internal/btree"
	"tebis/internal/kv"
	"tebis/internal/memtable"
	"tebis/internal/metrics"
	"tebis/internal/storage"
)

// holdJobs stops the scheduler at a job boundary: it waits until no
// compaction job is in flight or pending (every finished job has
// delivered its OnCompactionDone) and then claims exclusive mode, so no
// new job is planned. The caller owns the whole level range until
// releaseJobs.
func (db *DB) holdJobs() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for (len(db.inflight) > 0 || len(db.frozen) > 0 || db.exclusive) && db.bgErr == nil {
		db.cond.Wait()
	}
	if db.bgErr != nil {
		return db.bgErr
	}
	db.exclusive = true
	return nil
}

// releaseJobs ends a holdJobs window and restarts the scheduler.
func (db *DB) releaseJobs() {
	db.mu.Lock()
	db.exclusive = false
	db.cond.Broadcast()
	db.maybeScheduleLocked()
	db.mu.Unlock()
}

// AtJobBoundary runs fn while no compaction job is in flight or pending
// and none can start: every earlier job has installed its level and told
// the listener, and the level set stays as fn finds it until fn returns.
// Replication uses it to seed a newly attached backup between jobs, so
// the snapshot it ships holds every finished job's result. Writers keep
// appending; they stall only if L0 fills while fn runs.
func (db *DB) AtJobBoundary(fn func() error) error {
	if err := db.holdJobs(); err != nil {
		return err
	}
	defer db.releaseJobs()
	return fn()
}

// CompactAll forces every populated level down into the next one until
// only the deepest populated level holds data. Garbage collection uses
// it to eliminate every stale index entry pointing into victim segments
// before they are released.
//
// CompactAll flushes L0, then holds the scheduler and runs the cascade
// itself, so no background job races its full-cascade merges.
func (db *DB) CompactAll() error {
	if err := db.Flush(); err != nil {
		return err
	}
	if err := db.holdJobs(); err != nil {
		return err
	}
	defer db.releaseJobs()

	for i := 1; i < len(db.levels)-1; i++ {
		db.mu.Lock()
		if db.levels[i] == nil {
			db.mu.Unlock()
			continue
		}
		job := &compactionJob{
			id:       db.nextJobID,
			srcLevel: i,
			dstLevel: i + 1,
		}
		db.nextJobID++
		db.inflight[job.id] = job
		db.mu.Unlock()

		err := db.executeJob(job)

		db.mu.Lock()
		delete(db.inflight, job.id)
		db.cond.Broadcast()
		db.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// fail records a background error and wakes every waiter: stalled
// writers in freezeLocked, WaitIdle callers, and install-waiting jobs
// all re-check bgErr after the broadcast, so no exit path can strand
// them.
func (db *DB) fail(err error) {
	db.mu.Lock()
	if db.bgErr == nil {
		db.bgErr = fmt.Errorf("lsm: background compaction: %w", err)
	}
	db.cond.Broadcast()
	db.mu.Unlock()
}

// installLevel swaps a freshly built tree into place. Caller holds db.mu.
func (db *DB) installLevel(i int, built btree.Built) {
	if built.NumKeys == 0 {
		db.levels[i] = nil
		return
	}
	db.levels[i] = &level{
		tree:  btree.NewTree(db.dev, db.opt.NodeSize, built.Root),
		built: built,
	}
}

// freeLevel releases the device segments of a replaced level.
func (db *DB) freeLevel(lv *level) error {
	if lv == nil {
		return nil
	}
	for _, seg := range lv.built.Segments {
		if err := db.dev.Free(seg); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) notifyDone(res CompactionResult) {
	if l := db.getListener(); l != nil {
		l.OnCompactionDone(res)
	}
}

// levelCursor returns a merge cursor over level i plus the level itself
// (for later freeing). An empty level yields an exhausted cursor.
func (db *DB) levelCursor(i int) (cursor, *level) {
	db.mu.RLock()
	lv := db.levels[i]
	db.mu.RUnlock()
	if lv == nil {
		return &emptyCursor{}, nil
	}
	return newTreeCursor(db, lv.tree.Iter()), lv
}

// mergeStream streams src and dst (src is the newer data and wins ties)
// through emit in key order, charging compaction CPU along the way. It
// is the merge stage of the compaction pipeline; emit hands each entry
// to the index-build stage.
func (db *DB) mergeStream(src, dst cursor, emit func(key []byte, off storage.Offset, tomb bool) error) error {
	merged := 0
	add := func(key []byte, off storage.Offset, tomb bool) error {
		merged++
		return emit(key, off, tomb)
	}

	for src.valid() && dst.valid() {
		c := kv.Compare(src.key(), dst.key())
		switch {
		case c < 0:
			if err := add(src.key(), src.off(), src.tomb()); err != nil {
				return err
			}
			if err := src.next(); err != nil {
				return err
			}
		case c > 0:
			if err := add(dst.key(), dst.off(), dst.tomb()); err != nil {
				return err
			}
			if err := dst.next(); err != nil {
				return err
			}
		default:
			// Same key: the newer (src) version wins; the dst version
			// is discarded (this discard is the LSM's space reclaim —
			// the superseded record's bytes go to the dead ledger that
			// drives GC victim selection).
			db.recordDead(dst.off())
			if err := add(src.key(), src.off(), src.tomb()); err != nil {
				return err
			}
			merged++ // the dropped dst entry was still merge work
			if err := src.next(); err != nil {
				return err
			}
			if err := dst.next(); err != nil {
				return err
			}
		}
	}
	for _, c := range []cursor{src, dst} {
		for c.valid() {
			if err := add(c.key(), c.off(), c.tomb()); err != nil {
				return err
			}
			if err := c.next(); err != nil {
				return err
			}
		}
	}
	// A cursor that failed mid-stream reports !valid(); surface the
	// error instead of silently truncating the merge.
	for _, c := range []cursor{src, dst} {
		if tc, ok := c.(*treeCursor); ok && tc.err != nil {
			return tc.err
		}
	}

	db.charge(metrics.CompCompaction, uint64(merged)*db.cost.MergePerKV)
	// Attribute the read I/O CPU of walking the source trees.
	for _, c := range []cursor{src, dst} {
		if tc, ok := c.(*treeCursor); ok {
			db.charge(metrics.CompCompaction, db.cost.ReadIO(tc.it.NodesRead()*db.opt.NodeSize))
		}
	}
	return nil
}

// cursor is a sorted stream of (key, value-offset, tombstone) entries.
type cursor interface {
	valid() bool
	key() []byte
	off() storage.Offset
	tomb() bool
	next() error
}

// emptyCursor is an exhausted cursor.
type emptyCursor struct{}

func (*emptyCursor) valid() bool         { return false }
func (*emptyCursor) key() []byte         { return nil }
func (*emptyCursor) off() storage.Offset { return storage.NilOffset }
func (*emptyCursor) tomb() bool          { return false }
func (*emptyCursor) next() error         { return nil }

// memCursor streams a memtable.
type memCursor struct {
	it *memtable.Iterator
}

func (c *memCursor) valid() bool         { return c.it.Valid() }
func (c *memCursor) key() []byte         { return c.it.Entry().Key }
func (c *memCursor) off() storage.Offset { return c.it.Entry().Off }
func (c *memCursor) tomb() bool          { return c.it.Entry().Tombstone }
func (c *memCursor) next() error         { c.it.Next(); return nil }

// treeCursor streams a B+-tree level, fetching each entry's full key
// from the value log (the random-read cost KV separation trades for
// lower write amplification; charged to compaction).
type treeCursor struct {
	db  *DB
	it  *btree.Iterator
	cur []byte
	err error
}

func newTreeCursor(db *DB, it *btree.Iterator) *treeCursor {
	c := &treeCursor{db: db, it: it}
	c.load()
	return c
}

func (c *treeCursor) load() {
	if !c.it.Valid() {
		c.cur = nil
		if err := c.it.Err(); err != nil {
			c.err = err
		}
		return
	}
	key, err := c.db.log.GetKey(c.it.Entry().ValueOff)
	if err != nil {
		c.err = err
		c.cur = nil
		return
	}
	c.db.charge(metrics.CompCompaction, c.db.cost.ReadIO(len(key)+8))
	c.cur = key
}

func (c *treeCursor) valid() bool         { return c.err == nil && c.it.Valid() }
func (c *treeCursor) key() []byte         { return c.cur }
func (c *treeCursor) off() storage.Offset { return c.it.Entry().ValueOff }
func (c *treeCursor) tomb() bool          { return c.it.Entry().Tombstone }

func (c *treeCursor) next() error {
	if c.err != nil {
		return c.err
	}
	c.it.Next()
	c.load()
	return c.err
}
