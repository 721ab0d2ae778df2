package replica

import (
	"fmt"
	"slices"
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
	// Trace records offset-rewrite spans keyed by compaction job ID
	// (optional).
	Trace *obs.Tracer
}

// Backup is the backup-side replica of one region.
type Backup struct {
	cfg BackupConfig
	geo storage.Geometry

	// Registered RDMA buffers the primary writes into.
	logBuf *rdma.MemoryRegion // value-log tail replica (§3.2)
	idxBuf *rdma.MemoryRegion // index segment staging (§3.3)

	// db is the own engine (Build-Index, or once promoted). Writers hold
	// mu; DB reads it without, as a metrics sampler does.
	db atomic.Pointer[lsm.DB]

	mu sync.Mutex
	// ctls are the control slots of the links attached to this backup,
	// one per primary, which Crash unpins every one of.
	ctls    []*rdma.MemoryRegion
	log     *vlog.Log
	logMap  *SegMap
	flushed map[storage.SegmentID]bool // primary log segments flushed here
	ship    *shipJob                   // the staged compaction, nil between jobs
	levels  map[int]lsm.LevelState     // installed levels (Send-Index)
	// filterBufs are the collectors ship jobs gather their level's
	// filter in.
	filterBufs btree.FilterCollectors
	// watermarkPrimary is the last compaction watermark in primary
	// device space.
	watermarkPrimary storage.Offset
	firstErr         error
	promoted         bool

	// flushImg is handleFlushTail's segment-sized scratch, reused from
	// flush to flush (guarded by mu).
	flushImg []byte
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
	// The log buffer mirrors the primary's tail segment byte for byte.
	logBuf, err := cfg.Endpoint.Register(int(geo.SegmentSize()))
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
		cfg:    cfg,
		geo:    geo,
		logBuf: logBuf,
		idxBuf: idxBuf,
		logMap: NewSegMap(cfg.Device),
		levels: make(map[int]lsm.LevelState),
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
		b.db.Store(db)
	}
	return b, nil
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

// answer is the backup's side of one control RPC on link l, run on the
// primary's goroutine once the primary's request line has landed in l's
// control slot. It reads the request where it landed, handles it — or,
// for a retry (the same RequestID), replays the cached ack — clears the
// slot and writes the ack line into the primary's ack slot. A slot that
// holds no request (it was dropped on the wire) answers nothing, and an
// ack that does not land is the primary's to notice: both are a missed
// ack to it. The caller holds the handle's mu, which guards l.lastReq
// and l.lastAck.
//
// A request the backup cannot decode or handle fails the backup (Err)
// and silences the link: its control slot is unpinned, so every later
// request on it fails at the write and the primary evicts this backup
// once its retries run out.
func (b *Backup) answer(l *link) {
	var line [wire.HeaderSize]byte
	ok, err := l.ctl.ReadIfWord(0, line[:], wire.Magic)
	if ok {
		var ack []byte
		if ack, err = b.respond(l, line[:]); err == nil {
			_ = l.toPrimary.WriteUnsignaled(l.ack.RKey(), 0, ack) // a lost ack is a miss to the primary
		}
	}
	if err != nil {
		b.mu.Lock()
		b.failLocked(err)
		b.mu.Unlock()
		b.cfg.Endpoint.Deregister(l.ctl)
	}
}

// respond is answer's work on a request whose header line has landed:
// it returns the ack and clears the slot. Caller holds the handle's mu.
func (b *Backup) respond(l *link, line []byte) ([]byte, error) {
	// Detecting and parsing a request costs backup CPU, unlike the
	// one-sided data writes, which it never looks at.
	b.charge(metrics.CompOther, b.cfg.Cost.PollPerMessage)
	msg := line
	if h, err := wire.DecodeHeader(msg); err == nil && h.WireSize() > len(msg) {
		msg = make([]byte, min(h.WireSize(), l.ctl.Size()))
		if err := l.ctl.ReadAt(0, msg); err != nil {
			return nil, err
		}
	}
	h, payload, err := wire.DecodeMessage(msg)
	if err != nil {
		return nil, fmt.Errorf("replica: backup decode: %w", err)
	}
	if h.RequestID == 0 || h.RequestID != l.lastReq {
		ack, err := b.handle(h, payload)
		if err != nil {
			return nil, err
		}
		l.lastReq, l.lastAck = h.RequestID, ack
	}
	return l.lastAck, l.ctl.Clear(0, len(msg))
}

// failLocked records the backup's first error (Err). Caller holds b.mu;
// a handler calls it for an error that must not silence the link.
func (b *Backup) failLocked(err error) {
	if b.firstErr == nil {
		b.firstErr = err
	}
}

// Err returns the first error a request failed the backup with, if any.
func (b *Backup) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.firstErr
}

// unlink unpins a detached link's control slot and forgets it.
func (b *Backup) unlink(ctl *rdma.MemoryRegion) {
	b.cfg.Endpoint.Deregister(ctl)
	b.mu.Lock()
	b.ctls = slices.DeleteFunc(b.ctls, func(c *rdma.MemoryRegion) bool { return c == ctl })
	b.mu.Unlock()
}

// Crash severs the backup's transport without any cleanup: its
// registered buffers deregister, the control slot of every link among
// them, so each remote primary's next write (a log append or a control
// request) fails and evicts this replica; the "machine" is gone (§3.5).
// A crashed server calls this for each hosted backup; without it the
// primary would keep replicating into a dead node's memory. The backup
// owns no goroutine, so nothing is left running.
func (b *Backup) Crash() {
	b.cfg.Endpoint.Deregister(b.logBuf)
	b.cfg.Endpoint.Deregister(b.idxBuf)
	b.mu.Lock()
	for _, ctl := range b.ctls {
		b.cfg.Endpoint.Deregister(ctl)
	}
	b.mu.Unlock()
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
	return buildAck(h, op, 0, []byte{0})
}

// ackError builds a FlagError reply: the handler failed for this
// request, but the failure belongs to the request, not the link, so the
// link keeps answering (a frame the backup cannot decode must not take
// the whole replica down).
func ackError(h wire.Header, op wire.Op, err error) []byte {
	return buildAck(h, op, wire.FlagError, []byte(err.Error()))
}

// buildAck finishes the reply to h the way a server answers a client, in
// the reply form, so a status byte goes back as one 32-byte line and an
// error text behind it. An error text is cut to what the primary's ack buffer
// holds (ackRecvSize). An ack outlives its request — it is cached for the
// primary's retry — so each is built in a buffer of its own.
func buildAck(h wire.Header, op wire.Op, flags uint8, payload []byte) []byte {
	var rb wire.ReplyBuf
	return rb.Finish(wire.Header{
		Opcode:    op,
		Flags:     flags,
		RegionID:  h.RegionID,
		RequestID: h.RequestID,
	}, payload[:min(len(payload), wire.MaxPayload(ackRecvSize))])
}

// handleFlushTail persists the replicated log buffer as a local segment
// (§3.2 steps 2c-2d) and, in Build-Index mode, inserts the flushed
// records into the backup's own L0 before it acks: once a flush is
// acked its records are in the engine, so draining the engine drains
// every flush acked so far (the backup's compactions still run on the
// engine's own goroutine, as in the paper's baseline).
func (b *Backup) handleFlushTail(h wire.Header, req wire.FlushTail) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()

	// Adopted segments are full segment images: the log buffer is one
	// segment, and its unwritten suffix is zero (it holds no records by
	// construction). A framing device stamps its trailer into the
	// image's last bytes (storage.FramedWriter), above the usable
	// capacity no record reaches; the next flush's read overwrites it.
	if b.flushImg == nil {
		b.flushImg = make([]byte, b.geo.SegmentSize())
	}
	data := b.flushImg
	if err := b.logBuf.ReadAt(0, data); err != nil {
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

	if db := b.db.Load(); db != nil && b.cfg.Mode == BuildIndex {
		// Of the usable capacity only: above it is the frame's trailer,
		// not a record. The table copies the keys it inserts.
		recs := data[:storage.UsableCapacity(b.cfg.Device)]
		vlog.WalkImage(recs[:vlog.ScanUsed(recs)], func(pos int64, key, _ []byte, tomb bool, recLen int) bool {
			err = db.PutIndexed(key, b.geo.Pack(local, pos), tomb, recLen)
			return err == nil
		})
		if err != nil {
			return nil, err
		}
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

// handleCompactionStart opens staging state for one compaction job.
func (b *Backup) handleCompactionStart(h wire.Header, req wire.CompactionStart) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// A job still staged never completed (a primary retry, or a job
	// that failed): discard its partial segments. A failed free leaks
	// segments rather than corrupting anything, so record it where
	// Backup.Err() surfaces it instead of silently swallowing it — or
	// silencing the link over a bookkeeping leak.
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
			// keeps the link answering; the primary evicts this backup.
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
//
// A move shipped nothing and opened no staging state: the backup's level
// at SrcLevel is the moved level, and it becomes DstLevel as it is —
// root, segments and filter. A backup attached but not yet seeded by
// Sync holds no level there and keeps none; Sync seeds the moved level.
func (b *Backup) handleCompactionDone(h wire.Header, req wire.CompactionDone) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	dst := int(req.DstLevel)
	src := int(req.SrcLevel)
	if req.Moved {
		lv, held := b.levels[src]
		if held && lv.NumKeys != int(req.NumKeys) {
			return nil, fmt.Errorf("replica: job %d moves %d keys of level %d, which holds %d here", req.JobID, req.NumKeys, src, lv.NumKeys)
		}
		// The primary's destination was empty: a level held there is
		// not the primary's.
		if err := b.dropLevelLocked(dst); err != nil {
			return nil, err
		}
		if held {
			delete(b.levels, src)
			b.levels[dst] = lv
		}
		b.watermarkPrimary = storage.Offset(req.Watermark)
		return ackMessage(h, wire.OpCompactionDoneAck), nil
	}
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

	// Free the levels this compaction replaced (backups have no L0, the
	// Send-Index memory saving).
	for _, lvl := range []int{src, dst} {
		if err := b.dropLevelLocked(lvl); err != nil {
			return nil, err
		}
	}
	if req.NumKeys > 0 {
		b.levels[dst] = newState
	}
	b.watermarkPrimary = storage.Offset(req.Watermark)
	if ship != nil {
		ship.idxMap.Clear() // segment ownership moved to the level
		b.ship = nil
		ship.release(&b.filterBufs)
	}
	return ackMessage(h, wire.OpCompactionDoneAck), nil
}

// dropLevelLocked frees the installed level lvl's segments, if it holds
// one, and forgets it. Caller holds b.mu.
func (b *Backup) dropLevelLocked(lvl int) error {
	old, ok := b.levels[lvl]
	if !ok {
		return nil
	}
	for _, seg := range old.Segments {
		if err := b.cfg.Device.Free(seg); err != nil {
			return err
		}
	}
	delete(b.levels, lvl)
	return nil
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
		if b.db.Load() == nil {
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

// DB returns the backup's own engine (Build-Index mode, or once
// promoted; nil otherwise). It takes no lock.
func (b *Backup) DB() *lsm.DB { return b.db.Load() }
