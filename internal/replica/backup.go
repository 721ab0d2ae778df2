package replica

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tebis/internal/btree"
	"tebis/internal/integrity"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/rdma"
	"tebis/internal/region"
	"tebis/internal/shipcodec"
	"tebis/internal/storage"
	"tebis/internal/vlog"
	"tebis/internal/wire"
)

// Mode selects the replication scheme for a region (§4).
type Mode int

// Replication modes.
const (
	// NoReplication runs the primary alone.
	NoReplication Mode = iota
	// SendIndex ships the pre-built index to backups (the paper's
	// contribution).
	SendIndex
	// BuildIndex has backups build their own index with compactions
	// (the paper's baseline).
	BuildIndex
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case NoReplication:
		return "No-Replication"
	case SendIndex:
		return "Send-Index"
	case BuildIndex:
		return "Build-Index"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// BackupConfig configures one backup region replica.
type BackupConfig struct {
	// RegionID is the replicated region.
	RegionID region.ID
	// ServerName is the hosting region server.
	ServerName string
	// Mode selects Send-Index or Build-Index.
	Mode Mode
	// Device is the backup node's storage device.
	Device storage.Device
	// Endpoint is the backup node's NIC.
	Endpoint *rdma.Endpoint
	// Cycles is the backup node's cycle account.
	Cycles *metrics.Cycles
	// Cost is the cycle cost model.
	Cost metrics.CostModel
	// LSM configures the backup's own engine in Build-Index mode and is
	// reused by Promote in both modes.
	LSM lsm.Options
	// LogBufferSize sizes the registered RDMA log buffer the primary
	// mirrors its tail into. Zero selects the device segment size; it
	// must not exceed it.
	LogBufferSize int
	// Trace records offset-rewrite spans keyed by compaction job ID
	// (optional).
	Trace *obs.Tracer
}

// logBufferSize resolves the configured log-buffer size against the
// device geometry.
func logBufferSize(cfg BackupConfig, geo storage.Geometry) (int, error) {
	if cfg.LogBufferSize == 0 {
		return int(geo.SegmentSize()), nil
	}
	if int64(cfg.LogBufferSize) > geo.SegmentSize() {
		return 0, fmt.Errorf("replica: log buffer %d exceeds segment size %d",
			cfg.LogBufferSize, geo.SegmentSize())
	}
	return cfg.LogBufferSize, nil
}

// Backup is the backup-side replica of one region.
type Backup struct {
	cfg BackupConfig
	geo storage.Geometry

	// Registered RDMA buffers the primary writes into.
	logBuf *rdma.MemoryRegion // value-log tail replica (§3.2)
	idxBuf *rdma.MemoryRegion // index segment staging (§3.3)

	mu sync.Mutex
	// conn is the link of the primary attached last (nil before Attach),
	// the one Crash severs.
	conn    *link
	log     *vlog.Log
	logMap  *SegMap
	flushed map[storage.SegmentID]bool // primary log segments flushed here
	ship    *shipJob                   // the staged compaction, nil between jobs
	levels  map[int]lsm.LevelState     // installed levels (Send-Index)
	// levelMaps retains each installed level's <primary seg, local seg>
	// index translation after the ship job's map is cleared. Scrub needs
	// it to name corrupt segments in primary space, and repair needs it
	// in both directions: inverse to serve a primary-space copy of a
	// local segment (OpFetchSegment), forward to re-localize a pushed
	// repair image (OpRepairSegment).
	levelMaps map[int]map[storage.SegmentID]storage.SegmentID
	// filterBufs are the collectors ship jobs gather their level's
	// filter in.
	filterBufs btree.FilterCollectors
	db         *lsm.DB // own engine (Build-Index)
	// watermarkPrimary is the last compaction watermark in primary
	// device space.
	watermarkPrimary storage.Offset
	loopErr          error
	promoted         bool

	// flushImg is handleFlushTail's segment-sized scratch, reused from
	// flush to flush (guarded by mu).
	flushImg []byte

	// Build-Index: flushed segments are indexed by a background worker
	// so the flush ack does not wait on L0 inserts (backup compactions
	// run on the backup's own threads, as in the paper's baseline).
	idxQueue chan idxWork
	idxDone  chan struct{}
	// idxPending counts flushed segments queued for the worker or being
	// indexed by it (WaitIndexed).
	idxPending atomic.Int64
}

// idxWork is one flushed log segment awaiting Build-Index indexing.
type idxWork struct {
	local storage.SegmentID
	data  []byte
}

// shipJob is the backup's staging state for the primary's one in-flight
// compaction: its job ID, the primary→local index segment map, the
// rewritten segments per destination level, and, when the primary
// builds the level's filter, the prefixes of every leaf entry rewritten
// so far, which become the installed level's filter (nil when it builds
// none).
type shipJob struct {
	id      uint64
	idxMap  *SegMap
	pending map[int][]storage.SegmentID
	filter  *btree.FilterCollector
}

// release hands back the job's collector, if it took one.
func (s *shipJob) release(bufs *btree.FilterCollectors) {
	if s.filter != nil {
		bufs.Give(s.filter)
		s.filter = nil
	}
}

// discardShipLocked frees the staged job's partial segments, if a job is
// staged: it never became a level. Caller holds b.mu.
func (b *Backup) discardShipLocked() error {
	ship := b.ship
	if ship == nil {
		return nil
	}
	b.ship = nil
	ship.release(&b.filterBufs)
	return ship.idxMap.FreeAll()
}

// NewBackup creates the backup-side state for a region replica.
func NewBackup(cfg BackupConfig) (*Backup, error) {
	if cfg.Device == nil || cfg.Endpoint == nil {
		return nil, fmt.Errorf("replica: backup needs Device and Endpoint")
	}
	geo := cfg.Device.Geometry()
	logBufSize, err := logBufferSize(cfg, geo)
	if err != nil {
		return nil, err
	}
	logBuf, err := cfg.Endpoint.Register(logBufSize)
	if err != nil {
		return nil, err
	}
	// The staging buffer holds one shipped frame; a codec frame can
	// exceed the raw segment image by its header.
	idxBuf, err := cfg.Endpoint.Register(int(geo.SegmentSize()) + shipcodec.MaxOverhead)
	if err != nil {
		return nil, err
	}
	b := &Backup{
		cfg:       cfg,
		geo:       geo,
		logBuf:    logBuf,
		idxBuf:    idxBuf,
		logMap:    NewSegMap(cfg.Device),
		levels:    make(map[int]lsm.LevelState),
		levelMaps: make(map[int]map[storage.SegmentID]storage.SegmentID),
	}
	// The backup's value log holds adopted (replicated) segments; it
	// never appends until promotion.
	b.log, err = vlog.New(cfg.Device)
	if err != nil {
		return nil, err
	}
	if cfg.Mode == BuildIndex {
		opt := cfg.LSM
		opt.Device = cfg.Device
		opt.Cycles = cfg.Cycles
		opt.Cost = cfg.Cost
		opt.Listener = nil // backups of backups do not exist
		db, err := lsm.NewFromState(opt, b.log, nil, storage.NilOffset)
		if err != nil {
			return nil, err
		}
		b.db = db
		b.idxQueue = make(chan idxWork, 4)
		b.idxDone = make(chan struct{})
		go b.indexWorker(b.idxQueue)
	}
	return b, nil
}

// indexWorker drains flushed segments into the backup's own LSM
// (Build-Index mode only). After a failure it records the error and
// keeps draining (without indexing) instead of exiting: handleFlushTail
// blocks sending into the queue, so an exited worker would wedge the
// control loop on the next flush. The queue is a parameter, not a
// field read: Crash and Promote nil the field under b.mu, which this
// goroutine does not hold.
func (b *Backup) indexWorker(queue chan idxWork) {
	defer close(b.idxDone)
	failed := false
	for w := range queue {
		if !failed {
			if err := b.indexFlushedSegment(w.local, w.data); err != nil {
				b.fail(err)
				failed = true
			}
		}
		b.idxPending.Add(-1)
	}
}

// WaitIndexed blocks until every log segment flushed to a Build-Index
// backup so far has been inserted into its engine. The flush ack does
// not wait for that (the worker runs beside the control loop), so a
// caller about to drain or flush the engine — to read counters that
// must include all of the backup's indexing work — waits here first;
// otherwise a segment still in the queue is indexed after the drain and
// its compactions are neither awaited nor counted.
func (b *Backup) WaitIndexed() {
	for b.idxPending.Load() > 0 {
		time.Sleep(20 * time.Microsecond)
	}
}

// LogBufferRKey returns the rkey the primary writes log records to.
func (b *Backup) LogBufferRKey() uint32 { return b.logBuf.RKey() }

// IndexBufferRKey returns the rkey the primary stages index segments to.
func (b *Backup) IndexBufferRKey() uint32 { return b.idxBuf.RKey() }

// ServerName returns the hosting server's name.
func (b *Backup) ServerName() string { return b.cfg.ServerName }

// Mode returns the replication mode.
func (b *Backup) Mode() Mode { return b.cfg.Mode }

// LogMap exposes the backup's log segment map (promotion needs it).
func (b *Backup) LogMap() *SegMap { return b.logMap }

func (b *Backup) charge(c metrics.Component, n uint64) {
	if b.cfg.Cycles != nil {
		b.cfg.Cycles.Charge(c, n)
	}
}

// serve is the backup's control loop on one link: it receives the
// primary's commands and acknowledges them. The loop exits when the
// link's control QP closes.
//
// lastReq/lastAck deduplicate retried control RPCs: the primary
// serializes RPCs per backup and retries reuse the RequestID, so a
// one-entry cache per link gives at-most-once handler execution (a retry
// whose original was handled but whose ack was lost replays the cached
// ack instead of re-running the handler). Request IDs are the primary's,
// so the cache is the link's: another primary's IDs do not match it.
func (b *Backup) serve(l *link) {
	defer close(l.loopDone)
	var (
		lastReq uint64
		lastAck []byte
	)
	for {
		l.reqRecv.PostRecv(64 << 10)
		msg, err := l.reqRecv.Recv()
		if err != nil {
			return
		}
		// Control messages are two-sided: detection and parsing cost
		// backup CPU (unlike the one-sided data writes).
		b.charge(metrics.CompOther, b.cfg.Cost.PollPerMessage)
		h, payload, err := wire.DecodeMessage(msg)
		if err != nil {
			b.fail(fmt.Errorf("replica: backup decode: %w", err))
			return
		}
		// At-most-once: a retried request (same RequestID) whose
		// original already executed replays the cached ack.
		ack := lastAck
		if h.RequestID == 0 || h.RequestID != lastReq {
			ack, err = b.handle(h, payload)
			if err != nil {
				b.fail(err)
				return
			}
			lastReq, lastAck = h.RequestID, ack
		}
		if err := l.ackSend.Send(l.ackRecv, ack); err != nil {
			if !errors.Is(err, rdma.ErrDisconnected) {
				b.fail(err)
			}
			return
		}
	}
}

func (b *Backup) fail(err error) {
	b.mu.Lock()
	b.failLocked(err)
	b.mu.Unlock()
}

// failLocked is fail for callers already holding b.mu (handlers that
// must record an error without killing the control loop).
func (b *Backup) failLocked(err error) {
	if b.loopErr == nil {
		b.loopErr = err
	}
}

// Err returns the first control-loop error, if any.
func (b *Backup) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.loopErr
}

// Crash severs the backup's transport without any cleanup: the
// registered buffers deregister and the control QPs close, so a remote
// primary's next operation fails fast and evicts this replica — the
// "machine" is gone (§3.5). A crashed server calls this for each
// hosted backup; without it the primary would keep replicating into a
// dead node's memory.
//
// The "machine" dies, but this process lives on: Crash also reaps the
// backup's goroutines — it waits for the control loop to exit on the
// closed QPs, then shuts down the Build-Index worker — so repeated
// crash/failover tests do not accumulate leaked workers (or wedge a
// later flush on a queue nobody drains).
func (b *Backup) Crash() {
	b.cfg.Endpoint.Deregister(b.logBuf)
	b.cfg.Endpoint.Deregister(b.idxBuf)
	b.mu.Lock()
	l := b.conn
	b.mu.Unlock()
	if l != nil {
		// Waiting on the control loop first guarantees no handler is
		// still queueing index work when the queue closes.
		l.reqRecv.Close()
		l.ackSend.Close()
		<-l.loopDone
	}
	b.mu.Lock()
	q := b.idxQueue
	b.idxQueue = nil
	b.mu.Unlock()
	if q != nil {
		close(q)
		<-b.idxDone
	}
}

func (b *Backup) handle(h wire.Header, payload []byte) ([]byte, error) {
	switch h.Opcode {
	case wire.OpFlushTail:
		req, err := wire.DecodeFlushTail(payload)
		if err != nil {
			return nil, err
		}
		return b.handleFlushTail(h, req)
	case wire.OpCompactionStart:
		req, err := wire.DecodeCompactionStart(payload)
		if err != nil {
			return nil, err
		}
		return b.handleCompactionStart(h, req)
	case wire.OpIndexSegment:
		req, err := wire.DecodeIndexSegment(payload)
		if err != nil {
			return nil, err
		}
		return b.handleIndexSegment(h, req)
	case wire.OpCompactionDone:
		req, err := wire.DecodeCompactionDone(payload)
		if err != nil {
			return nil, err
		}
		return b.handleCompactionDone(h, req)
	case wire.OpSyncTail:
		req, err := wire.DecodeFlushTail(payload)
		if err != nil {
			return nil, err
		}
		return b.handleSyncTail(h, req)
	case wire.OpScrub:
		req, err := wire.DecodeScrubReq(payload)
		if err != nil {
			return nil, err
		}
		return b.handleScrub(h, req)
	case wire.OpFetchSegment:
		req, err := wire.DecodeFetchSegment(payload)
		if err != nil {
			return nil, err
		}
		return b.handleFetchSegment(h, req)
	case wire.OpRepairSegment:
		req, err := wire.DecodeRepairSegment(payload)
		if err != nil {
			return nil, err
		}
		return b.handleRepairSegment(h, req)
	case wire.OpGCRelease:
		req, err := wire.DecodeGCRelease(payload)
		if err != nil {
			return nil, err
		}
		return b.handleGCRelease(h, req)
	default:
		return nil, fmt.Errorf("replica: backup got unexpected op %v", h.Opcode)
	}
}

func ackMessage(h wire.Header, op wire.Op) []byte {
	return ackWithPayload(h, op, []byte{0})
}

// ackWithPayload builds a reply message carrying an arbitrary payload
// (scrub reports and fetched segment images ride the ack path).
func ackWithPayload(h wire.Header, op wire.Op, payload []byte) []byte {
	return buildAck(h, op, 0, payload)
}

// ackError builds a FlagError reply: the handler failed for this
// request, but the failure belongs to the request, not the control
// loop, so the loop keeps serving (a repair attempt on a segment the
// backup never had must not take the whole replica down).
func ackError(h wire.Header, op wire.Op, err error) []byte {
	return buildAck(h, op, wire.FlagError, []byte(err.Error()))
}

// buildAck finishes the reply to h the way every sender does, so a
// status byte or a short error text goes back as a header alone. An ack
// outlives its request — it is cached for the primary's retry — so each
// is built in a buffer of its own.
func buildAck(h wire.Header, op wire.Op, flags uint8, payload []byte) []byte {
	var mb wire.MsgBuf
	return mb.Finish(wire.Header{
		Opcode:    op,
		Flags:     flags,
		RegionID:  h.RegionID,
		RequestID: h.RequestID,
	}, payload)
}

// handleFlushTail persists the replicated log buffer as a local segment
// (§3.2 steps 2c-2d) and, in Build-Index mode, inserts the flushed
// records into the backup's own L0.
func (b *Backup) handleFlushTail(h wire.Header, req wire.FlushTail) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()

	// Adopted segments are full segment images; a log buffer smaller
	// than a segment is zero-padded (the unwritten suffix holds no
	// records by construction). Past the buffer's size only the frame
	// writes the scratch: a framing device stamps its trailer into the
	// image's last bytes (storage.FramedWriter), above the usable
	// capacity no record reaches, and stamps over it on the next flush.
	if b.flushImg == nil {
		b.flushImg = make([]byte, b.geo.SegmentSize())
	}
	data := b.flushImg
	if err := b.logBuf.ReadAt(0, data[:b.logBuf.Size()]); err != nil {
		return nil, err
	}
	// The log map may already hold a lazily allocated segment for this
	// primary segment (an index leaf referenced it before the flush).
	local, err := b.logMap.Resolve(storage.SegmentID(req.PrimarySeg))
	if err != nil {
		return nil, err
	}
	if err := b.log.AdoptSegmentAs(local, data); err != nil {
		return nil, err
	}
	b.logMap.MarkFlushed(storage.SegmentID(req.PrimarySeg))
	b.charge(metrics.CompLogReplication, b.cfg.Cost.WriteIO(len(data)))

	if b.cfg.Mode == BuildIndex && b.db != nil {
		// Build-Index: hand the flushed records to the indexing worker —
		// a copy of its own, the worker reads it after the scratch has
		// taken the next tail, and of the usable capacity only: above it
		// is the frame's trailer, not a record. Capture the channel under
		// b.mu — Crash and Promote nil the field — then send unlocked so
		// the worker can take the lock.
		q := b.idxQueue
		work := idxWork{local: local, data: append([]byte(nil), data[:storage.UsableCapacity(b.cfg.Device)]...)}
		b.mu.Unlock()
		b.idxPending.Add(1)
		q <- work
		b.mu.Lock()
	}

	// Clear the buffer for the next tail (the primary restarts at 0).
	if err := b.logBuf.Clear(0, b.logBuf.Size()); err != nil {
		return nil, err
	}
	return ackMessage(h, wire.OpFlushTailAck), nil
}

// handleSyncTail registers the primary's unflushed tail segment in the
// log map after Sync mirrored it into the log buffer. No data moves and
// nothing is flushed — the mapping alone guarantees a later Promote
// adopts the tail into the exact local segment that shipped indexes
// (which may already reference the tail) were rewritten to point at.
func (b *Backup) handleSyncTail(h wire.Header, req wire.FlushTail) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, err := b.logMap.Resolve(storage.SegmentID(req.PrimarySeg)); err != nil {
		return nil, err
	}
	return ackMessage(h, wire.OpSyncTailAck), nil
}

// indexFlushedSegment walks the records of a freshly flushed log segment
// and inserts them into the backup's own LSM (Build-Index).
func (b *Backup) indexFlushedSegment(local storage.SegmentID, data []byte) error {
	used := vlog.ScanUsed(data)
	return replaySegmentRecords(b.geo, local, data[:used], func(off storage.Offset, key []byte, tomb bool, recLen int) error {
		return b.db.PutIndexed(key, off, tomb, recLen)
	})
}

// handleCompactionStart opens staging state for one compaction job.
func (b *Backup) handleCompactionStart(h wire.Header, req wire.CompactionStart) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// A job still staged never completed (a primary retry, or a job
	// that failed): discard its partial segments. A failed free leaks
	// segments rather than corrupting anything, so record it where
	// Backup.Err() surfaces it instead of silently swallowing it — or
	// killing the control loop over a bookkeeping leak.
	if err := b.discardShipLocked(); err != nil {
		b.failLocked(fmt.Errorf("replica: freeing a stale ship job before job %d: %w", req.JobID, err))
	}
	ship := &shipJob{
		id:      req.JobID,
		idxMap:  NewSegMap(b.cfg.Device),
		pending: make(map[int][]storage.SegmentID),
	}
	if req.Filter {
		ship.filter = b.filterBufs.Take()
	}
	b.ship = ship
	return ackMessage(h, wire.OpIndexSegmentAck), nil
}

// handleIndexSegment rewrites and persists one shipped index segment
// (§3.3): resolve a local segment through the index map, rebase every
// pivot and KV device offset, write it out.
func (b *Backup) handleIndexSegment(h wire.Header, req wire.IndexSegment) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ship := b.ship
	if ship == nil || ship.id != req.JobID {
		return nil, fmt.Errorf("replica: index segment for unknown job %d", req.JobID)
	}
	if int64(req.DataLen) > b.geo.SegmentSize()+int64(shipcodec.MaxOverhead) {
		return nil, fmt.Errorf("replica: index segment of %d bytes", req.DataLen)
	}
	data := make([]byte, req.DataLen)
	if err := b.idxBuf.ReadAt(0, data); err != nil {
		return nil, err
	}
	if req.Codec != 0 {
		raw, err := shipcodec.Decode(data, nil, 0)
		if err != nil {
			// Request-scoped failure (a corrupt frame): a FlagError ack
			// keeps the loop alive; the primary evicts this backup.
			return ackError(h, wire.OpIndexSegmentAck, err), nil
		}
		data = raw
	}
	rewriteStart := time.Now()
	entries := ship.filter.Len()
	pointers, err := btree.RewriteLevelSegment(
		data, b.cfg.LSM.NodeSize, b.geo,
		ship.idxMap.Resolve, // child pointers → index map
		b.logMap.Resolve,    // value offsets → log map (lazy for tail refs)
		ship.filter,         // leaf prefixes → the level's filter
	)
	if err != nil {
		return nil, err
	}
	b.charge(metrics.CompRewriteIndex, uint64(pointers)*b.cfg.Cost.RewritePerPointer+
		uint64(ship.filter.Len()-entries)*b.cfg.Cost.FilterPerKey)

	local, err := ship.idxMap.Resolve(storage.SegmentID(req.PrimarySeg))
	if err != nil {
		return nil, err
	}
	if err := storage.WriteFramed(b.cfg.Device, b.geo.Pack(local, 0), data, integrity.KindIndex); err != nil {
		return nil, err
	}
	b.charge(metrics.CompRewriteIndex, b.cfg.Cost.WriteIO(len(data)))
	b.cfg.Trace.Record(obs.Span{
		Cat: "replication", Name: "rewrite", JobID: req.JobID,
		Bytes: int64(len(data)),
		Start: rewriteStart, Dur: time.Since(rewriteStart),
	})
	lvl := int(req.DstLevel)
	ship.pending[lvl] = append(ship.pending[lvl], local)
	return ackMessage(h, wire.OpIndexSegmentAck), nil
}

// handleCompactionDone installs the shipped level: translate the root
// through the index map, adopt the pending segments with the filter the
// rewrite built from their leaves, release the levels the compaction
// replaced. A filter that did not see the level's every entry fails the
// install rather than let a lookup skip a level holding its key.
func (b *Backup) handleCompactionDone(h wire.Header, req wire.CompactionDone) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	dst := int(req.DstLevel)
	src := int(req.SrcLevel)
	ship := b.ship
	if ship != nil && ship.id != req.JobID {
		ship = nil
	}

	var newState lsm.LevelState
	if req.NumKeys > 0 {
		if ship == nil {
			return nil, fmt.Errorf("replica: compaction done for unknown job %d", req.JobID)
		}
		rootOff := storage.Offset(req.Root)
		localSeg, ok := ship.idxMap.Lookup(b.geo.Segment(rootOff))
		if !ok {
			return nil, fmt.Errorf("replica: root segment %d never shipped", b.geo.Segment(rootOff))
		}
		filter, err := ship.filter.Build(int(req.NumKeys))
		if err != nil {
			return nil, fmt.Errorf("replica: level %d of job %d: %w", dst, req.JobID, err)
		}
		newState = lsm.LevelState{
			Root:     b.geo.Rebase(rootOff, localSeg),
			Segments: ship.pending[dst],
			NumKeys:  int(req.NumKeys),
			Filter:   filter,
		}
	}

	// Free the levels this compaction replaced.
	for _, lvl := range []int{src, dst} {
		if lvl == 0 {
			continue // backups have no L0 (the Send-Index memory saving)
		}
		if old, ok := b.levels[lvl]; ok {
			for _, seg := range old.Segments {
				if err := b.cfg.Device.Free(seg); err != nil {
					return nil, err
				}
			}
			delete(b.levels, lvl)
			delete(b.levelMaps, lvl)
		}
	}
	if req.NumKeys > 0 {
		b.levels[dst] = newState
		// Retain the job's index translation for the installed level:
		// scrub and repair need primary<->local segment naming long
		// after the ship job is gone.
		b.levelMaps[dst] = ship.idxMap.Snapshot()
	}
	b.watermarkPrimary = storage.Offset(req.Watermark)
	if ship != nil {
		ship.idxMap.Clear() // segment ownership moved to the level
		b.ship = nil
		ship.release(&b.filterBufs)
	}
	return ackMessage(h, wire.OpCompactionDoneAck), nil
}

// handleGCRelease performs the backup side of GC (§4: the primary moves
// data, backups only free): translate each victim through the log map,
// free the local copy, and retire the primary-space name so a recycled
// segment ID resolves to a fresh local segment (DESIGN.md "Value-log GC").
// Unknown segments are skipped — redelivery after a primary retry or a
// backup resync is harmless.
//
// A Build-Index backup only retires the name: its own LSM may still
// hold entries pointing into the local copy until its own compactions
// drop them, so the segment stays allocated (a bounded leak its own
// reclaim lifecycle absorbs) rather than risking dangling reads.
func (b *Backup) handleGCRelease(h wire.Header, req wire.GCRelease) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ps := range req.Segs {
		primary := storage.SegmentID(ps)
		local, ok := b.logMap.Lookup(primary)
		if !ok {
			continue
		}
		if b.db == nil {
			if _, err := b.log.Release([]storage.SegmentID{local}); err != nil {
				return nil, err
			}
		}
		b.logMap.Delete(primary)
	}
	return ackMessage(h, wire.OpGCReleaseAck), nil
}

// LevelStates returns the installed levels ordered L1..Ln, sized to
// maxLevels-1 entries (Send-Index mode).
func (b *Backup) LevelStates(maxLevels int) []lsm.LevelState {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]lsm.LevelState, maxLevels-1)
	var lvls []int
	for l := range b.levels {
		lvls = append(lvls, l)
	}
	sort.Ints(lvls)
	for _, l := range lvls {
		if l-1 >= 0 && l-1 < len(out) {
			out[l-1] = b.levels[l]
		}
	}
	return out
}

// DB returns the backup's own engine (Build-Index mode; nil otherwise).
func (b *Backup) DB() *lsm.DB { return b.db }

// replaySegmentRecords walks the records of one segment image.
func replaySegmentRecords(geo storage.Geometry, seg storage.SegmentID, data []byte, fn func(off storage.Offset, key []byte, tomb bool, recLen int) error) error {
	var ferr error
	vlog.WalkImage(data, func(pos int64, key, value []byte, tomb bool, recLen int) bool {
		if err := fn(geo.Pack(seg, pos), key, tomb, recLen); err != nil {
			ferr = err
			return false
		}
		return true
	})
	return ferr
}
