package lsm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tebis/internal/btree"
	"tebis/internal/kv"
	"tebis/internal/memtable"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// Errors reported by the engine.
var (
	ErrClosed = errors.New("lsm: database closed")
)

// level is one on-device level (L1..). built.Filter, when not nil, is
// the prefix filter a lookup tests before it walks tree.
type level struct {
	tree  *btree.Tree
	built btree.Built
}

func (lv *level) numKeys() int {
	if lv == nil {
		return 0
	}
	return lv.built.NumKeys
}

// frozenL0 is the immutable L0 awaiting (or undergoing) compaction.
type frozenL0 struct {
	mt   *memtable.Table
	mark storage.Offset // log position when the table was cut
}

// DB is a Kreon-style LSM engine over a value log.
//
// Concurrency: Put/Delete/Get/Scan may be called from any goroutine.
// One background compactor runs one job at a time, as the paper's
// engine does. A full L0 is frozen and a new one cut; the frozen table
// is the compactor's first job. A writer that fills L0 again while a
// table is still frozen stalls until that table is installed as L1 —
// the stall the paper's tail-latency experiment observes (§5.1).
type DB struct {
	opt Options
	dev storage.Device
	geo storage.Geometry
	log *vlog.Log

	cycles  *metrics.Cycles
	cost    metrics.CostModel
	stats   *metrics.CompactionStats
	trace   *obs.Tracer
	lookups *metrics.LookupStats // gets', apart from the fields every get reads

	listener atomic.Value // holds listenerBox

	// gcMu serializes cost-based GC passes (GCOnce); independent of mu.
	gcMu sync.Mutex

	mu        sync.RWMutex
	cond      *sync.Cond // signaled when compaction/scheduler state changes
	l0        *memtable.Table
	frozen    *frozenL0 // nil while no table awaits compaction
	levels    []*level  // levels[0] unused; levels[i] = Li
	watermark storage.Offset
	closed    bool
	bgErr     error
	deadHdr   [vlog.HeaderSize]byte // recordDead's header scratch for callers holding mu for writing

	// Compaction scheduler state (guarded by mu).
	job       *compactionJob // the job in flight, nil if none
	nextJobID uint64
	exclusive bool // CompactAll holds the whole level range
	// filterBufs are the collectors a job's builder gathers the level's
	// filter in.
	filterBufs btree.FilterCollectors
}

// New creates an empty DB.
func New(opt Options) (*DB, error) {
	opt.applyDefaults()
	if opt.Device == nil {
		return nil, fmt.Errorf("lsm: Options.Device is required")
	}
	log, err := vlog.New(opt.Device)
	if err != nil {
		return nil, err
	}
	return newWithLog(opt, log, nil)
}

// NewFromState creates a DB over an existing value log and level set —
// the promotion path: a backup that already holds a replicated log and
// rewritten (or self-built) levels becomes a primary (§3.5). The caller
// replays the log suffix into L0 afterwards via ReplayLog.
func NewFromState(opt Options, log *vlog.Log, levels []LevelState, watermark storage.Offset) (*DB, error) {
	opt.applyDefaults()
	if opt.Device == nil {
		return nil, fmt.Errorf("lsm: Options.Device is required")
	}
	db, err := newWithLog(opt, log, levels)
	if err != nil {
		return nil, err
	}
	db.watermark = watermark
	return db, nil
}

func newWithLog(opt Options, log *vlog.Log, states []LevelState) (*DB, error) {
	db := &DB{
		opt:     opt,
		dev:     opt.Device,
		geo:     opt.Device.Geometry(),
		log:     log,
		cycles:  opt.Cycles,
		cost:    opt.Cost,
		stats:   opt.CompactionStats,
		trace:   opt.Trace,
		lookups: new(metrics.LookupStats),
		levels:  make([]*level, opt.MaxLevels),
	}
	if db.stats == nil {
		db.stats = &metrics.CompactionStats{}
	}
	db.cond = sync.NewCond(&db.mu)
	if opt.Listener != nil {
		db.SetListener(opt.Listener)
	}
	db.l0 = memtable.New(0)
	for i, st := range states {
		li := i + 1
		if li >= opt.MaxLevels {
			return nil, fmt.Errorf("lsm: %d level states exceed MaxLevels %d", len(states), opt.MaxLevels)
		}
		if st.Root == storage.NilOffset {
			continue
		}
		db.levels[li] = &level{
			tree: btree.NewTree(opt.Device, opt.NodeSize, st.Root),
			built: btree.Built{
				Root:     st.Root,
				Segments: append([]storage.SegmentID(nil), st.Segments...),
				NumKeys:  st.NumKeys,
				Filter:   st.Filter,
			},
		}
	}
	return db, nil
}

// listenerBox wraps a Listener so atomic.Value tolerates differing
// concrete types.
type listenerBox struct{ l Listener }

// SetListener installs (or replaces) the engine's event listener. The
// promotion path uses it to wire a fresh primary replica to an engine
// built from backup state.
func (db *DB) SetListener(l Listener) {
	db.listener.Store(listenerBox{l: l})
}

// getListener returns the current listener, or nil.
func (db *DB) getListener() Listener {
	if v := db.listener.Load(); v != nil {
		return v.(listenerBox).l
	}
	return nil
}

// Log exposes the value log (replication and promotion need it).
func (db *DB) Log() *vlog.Log { return db.log }

// CompactionStats returns a snapshot of the engine's compaction timings
// and writer-stall accounting.
func (db *DB) CompactionStats() metrics.CompactionSnapshot { return db.stats.Snapshot() }

// LookupStats returns what the engine's gets that reached its
// on-device levels have done there so far.
func (db *DB) LookupStats() metrics.LookupSnapshot { return db.lookups.Snapshot() }

// Watermark returns the current compaction watermark: the log offset
// below which all data is in on-device levels.
func (db *DB) Watermark() storage.Offset {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.watermark
}

// recordDead charges the record at off to the value log's dead-space
// ledger — called wherever the LSM drops an index entry (an L0 in-place
// overwrite, a same-key discard in a compaction merge, a tombstone
// eliminated at the last level). The ledger is advisory (it only steers
// GC victim selection), so lookup errors — e.g. the record's segment was
// already reclaimed — are ignored rather than failing the write path.
// The record's header is read through scratch, eight bytes the caller
// owns: db.deadHdr under the write lock, a job's own elsewhere.
func (db *DB) recordDead(off storage.Offset, scratch []byte) {
	if off == storage.NilOffset {
		return
	}
	h, err := db.log.ReadHeader(off, scratch)
	if err != nil {
		return
	}
	db.log.AddDead(off, h.RecLen())
}

// charge adds cycles if a recorder is configured.
func (db *DB) charge(c metrics.Component, n uint64) {
	if db.cycles != nil {
		db.cycles.Charge(c, n)
	}
}

// capacity returns the key capacity of level i (1-based).
func (db *DB) capacity(i int) int {
	c := db.opt.L0MaxKeys
	for j := 0; j < i; j++ {
		c *= db.opt.GrowthFactor
	}
	return c
}

// Put inserts or overwrites a key.
func (db *DB) Put(key, value []byte) error {
	return db.mutate(key, value, false, nil)
}

// Delete tombstones a key.
func (db *DB) Delete(key []byte) error {
	return db.mutate(key, nil, true, nil)
}

// PutTraced is Put carrying a sampled request's span context; the
// listener (replication) records per-backup ship/ack spans under it.
// rt may be nil, making it identical to Put.
func (db *DB) PutTraced(key, value []byte, rt *obs.ReqTrace) error {
	return db.mutate(key, value, false, rt)
}

// DeleteTraced is Delete carrying a sampled request's span context.
func (db *DB) DeleteTraced(key []byte, rt *obs.ReqTrace) error {
	return db.mutate(key, nil, true, rt)
}

func (db *DB) mutate(key, value []byte, tombstone bool, rt *obs.ReqTrace) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if err := db.bgErr; err != nil {
		db.mu.Unlock()
		return err
	}

	// Append to the value log first; its offset is the index pointer.
	res, err := db.log.Append(key, value, tombstone)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	recLen := 8 + len(key) + len(value)
	db.charge(metrics.CompInsertL0, db.cost.L0Insert(recLen))
	if res.Sealed != nil {
		// Persisting the sealed tail costs write-I/O CPU.
		db.charge(metrics.CompInsertL0, db.cost.WriteIO(res.Sealed.Len))
	}
	if l := db.getListener(); l != nil {
		// Replication runs under the engine lock so backups observe
		// appends in log order.
		l.OnAppend(res, rt)
	}

	if prev, over := db.l0.InsertPrev(key, res.Off, tombstone); over && prev.Off != res.Off {
		db.recordDead(prev.Off, db.deadHdr[:])
	}

	if db.l0.Len() >= db.opt.L0MaxKeys {
		if err := db.freezeLocked(); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	db.mu.Unlock()
	return nil
}

// PutIndexed inserts a key that already has a value-log record at off on
// this DB's device — the Build-Index backup path: values arrive via log
// replication, and the backup maintains its own L0 and compactions
// (§4, "Build-Index"). recLen is the record size for cost accounting.
func (db *DB) PutIndexed(key []byte, off storage.Offset, tombstone bool, recLen int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.bgErr; err != nil {
		return err
	}
	db.charge(metrics.CompInsertL0, db.cost.L0Insert(recLen))
	if prev, over := db.l0.InsertPrev(key, off, tombstone); over && prev.Off != off {
		db.recordDead(prev.Off, db.deadHdr[:])
	}
	if db.l0.Len() >= db.opt.L0MaxKeys {
		if err := db.freezeLocked(); err != nil {
			return err
		}
	}
	return nil
}

// freezeLocked cuts the active L0 and hands it to the compactor. Callers
// hold db.mu. While an earlier table is still frozen the caller stalls
// until its compaction installs it — the L0 write stall the paper's
// tail-latency experiment observes (§5.1).
func (db *DB) freezeLocked() error {
	if db.frozen != nil {
		db.stats.StallBegin()
		start := time.Now()
		for db.frozen != nil && !db.closed && db.bgErr == nil {
			db.cond.Wait()
		}
		db.stats.StallEnd(time.Since(start))
	}
	if db.closed {
		return ErrClosed
	}
	if db.bgErr != nil {
		return db.bgErr
	}
	db.frozen = &frozenL0{mt: db.l0, mark: db.log.Position()}
	db.l0 = memtable.New(0)
	db.maybeScheduleLocked()
	return nil
}

// Flush forces the current L0 down to L1 (and cascades), then waits for
// the engine to go idle. Benchmarks use it to account all compaction
// work before reading amplification counters.
func (db *DB) Flush() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.l0.Len() > 0 {
		if err := db.freezeLocked(); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	db.mu.Unlock()
	return db.WaitIdle()
}

// idleLocked reports whether no compaction job is running or pending
// and no hold is in force. Caller holds db.mu.
func (db *DB) idleLocked() bool {
	return db.job == nil && db.frozen == nil && !db.exclusive
}

// WaitIdle blocks until no compaction job is running or pending.
func (db *DB) WaitIdle() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for !db.idleLocked() && db.bgErr == nil {
		db.cond.Wait()
	}
	return db.bgErr
}

// Levels returns a snapshot of the on-device level states (index 0 of
// the result is L1).
func (db *DB) Levels() []LevelState {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]LevelState, 0, len(db.levels)-1)
	for i := 1; i < len(db.levels); i++ {
		var st LevelState
		if lv := db.levels[i]; lv != nil {
			st = LevelState{
				Root:     lv.built.Root,
				Segments: append([]storage.SegmentID(nil), lv.built.Segments...),
				NumKeys:  lv.built.NumKeys,
				Filter:   lv.built.Filter,
			}
		}
		out = append(out, st)
	}
	return out
}

// L0Len returns the number of keys in the active L0 (diagnostics).
func (db *DB) L0Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.l0.Len()
}

// MemtableBytes returns the memory the active L0 memtable has allocated
// (memtable.Table.Bytes).
func (db *DB) MemtableBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.l0.Bytes()
}

// QueueDepth reports the compaction backlog: the frozen L0 table
// waiting to drain (0 or 1) and the job in flight (0 or 1).
func (db *DB) QueueDepth() (frozen, inflight int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.frozen != nil {
		frozen = 1
	}
	if db.job != nil {
		inflight = 1
	}
	return frozen, inflight
}

// ReplayLog re-inserts all log records from a watermark into L0 without
// re-appending them — the promoted primary's L0 reconstruction (§3.5).
func (db *DB) ReplayLog(from storage.Offset) (int, error) {
	n := 0
	err := db.log.Replay(from, func(off storage.Offset, pair kv.Pair, tomb bool) bool {
		db.mu.Lock()
		db.charge(metrics.CompInsertL0, db.cost.L0Insert(pair.Size()+8))
		// The overwrite hook re-learns in-log dead bytes during crash
		// recovery: every superseded record the replay walks over is
		// charged back to the space ledger.
		if prev, over := db.l0.InsertPrev(pair.Key, off, tomb); over && prev.Off != off {
			db.recordDead(prev.Off, db.deadHdr[:])
		}
		db.mu.Unlock()
		n++
		return true
	})
	return n, err
}

// Close shuts the engine down after draining compactions.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.mu.Unlock()
	err := db.WaitIdle()
	db.mu.Lock()
	db.closed = true
	db.cond.Broadcast()
	db.mu.Unlock()
	return err
}
