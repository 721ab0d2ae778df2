package lsm

import (
	"fmt"

	"tebis/internal/btree"
	"tebis/internal/kv"
	"tebis/internal/memtable"
	"tebis/internal/metrics"
	"tebis/internal/vlog"
)

// holdJobs stops the scheduler at a job boundary: it waits until no
// compaction job is in flight or pending (every finished job has
// delivered its OnCompactionDone) and then claims exclusive mode, so no
// new job is planned. The caller owns the whole level range until
// releaseJobs.
func (db *DB) holdJobs() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for !db.idleLocked() && db.bgErr == nil {
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
			filter:   db.filterLocked(i + 1),
		}
		db.nextJobID++
		db.job = job
		db.mu.Unlock()

		err := db.executeJob(job)

		db.mu.Lock()
		db.job = nil
		db.cond.Broadcast()
		db.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// fail records a background error and wakes every waiter: stalled
// writers in freezeLocked and WaitIdle and holdJobs callers all
// re-check bgErr after the broadcast, so no exit path can strand them.
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
func (db *DB) levelCursor(i int) (cursor, *level, error) {
	db.mu.RLock()
	lv := db.levels[i]
	db.mu.RUnlock()
	if lv == nil {
		return &emptyCursor{}, nil, nil
	}
	c := &treeCursor{db: db, comp: metrics.CompCompaction}
	c.it.First(lv.tree)
	c.load()
	return c, lv, c.it.Err()
}

// mergedEntry is one index entry leaving a merge, as a leaf stores it.
// key is the full key when the merge had it in memory (a memtable
// entry, or a tree entry a prefix tie made it read) and nil otherwise.
// A memtable's key is in the table's arena, which nobody rewrites; a
// tree entry's is lent: it is the cursor's buffer, which the cursor's
// next tie overwrites, so it is good until emit returns (the builder
// copies the keys it keeps).
type mergedEntry struct {
	btree.LeafEntry
	key []byte
}

// mergeStream streams src and dst (src is the newer data and wins ties)
// through emit in key order, charging compaction CPU along the way. It
// is the merge half of a compaction job; emit hands each entry to the
// job's builder.
func (db *DB) mergeStream(src, dst cursor, emit func(mergedEntry) error) error {
	merged := 0
	deadHdr := make([]byte, vlog.HeaderSize) // recordDead's scratch for this merge
	// take emits the entry c stands on and advances c.
	take := func(c cursor) error {
		merged++
		if err := emit(mergedEntry{LeafEntry: c.entry(), key: c.heldKey()}); err != nil {
			return err
		}
		return c.next()
	}

	for src.valid() && dst.valid() {
		c, err := compareCursors(src, dst)
		if err != nil {
			return err
		}
		switch {
		case c < 0:
			err = take(src)
		case c > 0:
			err = take(dst)
		default:
			// Same key: the newer (src) version wins; the dst version
			// is discarded (this discard is the LSM's space reclaim —
			// the superseded record's bytes go to the dead ledger that
			// drives GC victim selection).
			db.recordDead(dst.entry().ValueOff, deadHdr)
			merged++ // the dropped dst entry was still merge work
			if err = dst.next(); err == nil {
				err = take(src)
			}
		}
		if err != nil {
			return err
		}
	}
	for _, c := range []cursor{src, dst} {
		for c.valid() {
			if err := take(c); err != nil {
				return err
			}
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

// cursor is a sorted stream of index entries as a leaf stores them:
// (prefix, value-offset, tombstone). The prefix orders two entries
// unless it ties, so the full key is a separate, lazy question: key
// answers it from the value log the first time it is asked at a
// position and from memory until next; heldKey never reads. A failed
// read or node fetch is returned by the call that made it.
type cursor interface {
	valid() bool
	entry() btree.LeafEntry
	key() ([]byte, error)
	heldKey() []byte // the full key if it is in memory, else nil
	next() error
}

// compareCursors orders the entries two valid cursors stand on, in key
// order, reading full keys only when the prefixes are equal: strictly
// ordered prefixes order the keys they were cut from, zero-padded short
// keys included (kv.MakePrefix). It is the one comparison the
// compaction merge and Scan share.
func compareCursors(a, b cursor) (int, error) {
	if c := a.entry().Prefix.Compare(b.entry().Prefix); c != 0 {
		return c, nil
	}
	ka, err := a.key()
	if err != nil {
		return 0, err
	}
	kb, err := b.key()
	if err != nil {
		return 0, err
	}
	return kv.Compare(ka, kb), nil
}

// emptyCursor is an exhausted cursor.
type emptyCursor struct{}

func (*emptyCursor) valid() bool            { return false }
func (*emptyCursor) entry() btree.LeafEntry { return btree.LeafEntry{} }
func (*emptyCursor) key() ([]byte, error)   { return nil, nil }
func (*emptyCursor) heldKey() []byte        { return nil }
func (*emptyCursor) next() error            { return nil }

// memCursor streams a memtable, which holds its full keys — in its own
// arena, good while the table is reachable — and the prefixes cut from
// them.
type memCursor struct {
	it memtable.Iterator
}

func (c *memCursor) valid() bool          { return c.it.Valid() }
func (c *memCursor) key() ([]byte, error) { return c.it.Entry().Key, nil }
func (c *memCursor) heldKey() []byte      { return c.it.Entry().Key }
func (c *memCursor) next() error          { c.it.Next(); return nil }

func (c *memCursor) entry() btree.LeafEntry {
	e := c.it.Entry()
	return btree.LeafEntry{Prefix: c.it.Prefix(), ValueOff: e.Off, Tombstone: e.Tombstone}
}

// treeCursor streams a B+-tree level from its leaves. A leaf entry is
// all it holds; the entry's full key is in the value log and is read —
// into the cursor's buffer, charged to comp — only if somebody asks
// (the random-read cost KV separation trades for lower write
// amplification, paid on prefix ties instead of on every entry). The
// key it returns is good until it reads the next one.
type treeCursor struct {
	db   *DB
	it   btree.Iterator
	comp metrics.Component // who drives the cursor: a compaction or a scan
	e    btree.LeafEntry   // the entry it stands on, while valid
	full []byte            // e's full key once read, in buf
	buf  []byte            // the memory full keys are read into
}

// seek makes c a scan's cursor over tree, standing on the first entry
// whose key is >= start.
func (c *treeCursor) seek(db *DB, tree *btree.Tree, start []byte, fullKey btree.FullKeyReader) error {
	c.db, c.comp = db, metrics.CompOther
	err := c.it.SeekGE(tree, start, fullKey)
	c.load()
	return err
}

// load notes the entry the iterator has come to stand on.
func (c *treeCursor) load() {
	c.full = nil
	if c.it.Valid() {
		c.e = c.it.Entry()
	}
}

// reset empties c, keeping its iterator's and its key's memory for the
// next scan.
func (c *treeCursor) reset() {
	c.it.Reset()
	c.db, c.e, c.full = nil, btree.LeafEntry{}, nil
}

func (c *treeCursor) valid() bool            { return c.it.Valid() }
func (c *treeCursor) entry() btree.LeafEntry { return c.e }
func (c *treeCursor) heldKey() []byte        { return c.full }

func (c *treeCursor) key() ([]byte, error) {
	if c.full == nil {
		key, err := c.db.appendKey(c.buf, c.e.ValueOff, c.comp)
		c.buf = key[:0]
		if err != nil {
			return nil, err
		}
		c.full = key
	}
	return c.full, nil
}

func (c *treeCursor) next() error {
	c.it.Next()
	c.load()
	return c.it.Err()
}
