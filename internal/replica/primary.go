package replica

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tebis/internal/btree"
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

// RetryPolicy bounds the primary's patience with an unresponsive backup
// before declaring it dead (§3.5). The zero value selects
// DefaultRetryPolicy.
type RetryPolicy struct {
	// AckTimeout is the per-attempt deadline for a signalled write's
	// completion, counted from its post: a completion that arrives, or
	// was stalled on the wire (rdma.Completion.Delay), that long after
	// the post misses it. A control RPC waits for none: its ack is in
	// the ack slot when the backup's answer step returns, or it is
	// missed.
	AckTimeout time.Duration
	// MaxRetries is the number of additional attempts after the first
	// (0 in a non-zero policy means fail on the first miss).
	MaxRetries int
	// Backoff is the sleep before the first retry, doubling per attempt.
	Backoff time.Duration
}

// DefaultRetryPolicy is applied where a config leaves Retry zero.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		AckTimeout: 5 * time.Second,
		MaxRetries: 2,
		Backoff:    5 * time.Millisecond,
	}
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if r == (RetryPolicy{}) {
		return def
	}
	if r.AckTimeout <= 0 {
		r.AckTimeout = def.AckTimeout
	}
	if r.Backoff <= 0 {
		r.Backoff = def.Backoff
	}
	if r.MaxRetries < 0 {
		r.MaxRetries = 0
	}
	return r
}

// backoff returns the sleep before the attempt-th retry (attempt ≥ 1).
func (r RetryPolicy) backoff(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	return r.Backoff << shift
}

// PrimaryConfig configures the primary-side replica of a region.
type PrimaryConfig struct {
	// RegionID is the replicated region.
	RegionID region.ID
	// ServerName is the hosting region server.
	ServerName string
	// Mode selects the replication scheme.
	Mode Mode
	// Endpoint is the primary node's NIC.
	Endpoint *rdma.Endpoint
	// Cycles is the primary node's cycle account.
	Cycles *metrics.Cycles
	// Cost is the cycle cost model.
	Cost metrics.CostModel
	// ShipCodec compresses index-segment images on the wire, in the
	// request that ships them (DESIGN.md "Replication"). Zero (None)
	// ships raw bytes — the paper's baseline.
	ShipCodec shipcodec.Codec
	// ShipDelta is ignored; kept only because benchmark/ sets it (ROADMAP item 18).
	ShipDelta bool
	// ShipPageSize is the page size the codec packs leaves at: the
	// B+-tree node size. Zero selects shipcodec.DefaultPageSize.
	ShipPageSize int
	// Ship collects raw-vs-wire ship traffic metrics (optional).
	Ship *metrics.ShipStats
	// Retry bounds how long the primary waits on an unresponsive backup
	// before evicting it (zero selects DefaultRetryPolicy).
	Retry RetryPolicy
	// Failures collects retry/eviction/degradation metrics (optional).
	Failures *metrics.FailureStats
	// Trace records per-backup ship spans keyed by compaction job ID
	// (optional).
	Trace *obs.Tracer
	// Stages aggregates the ship/ack stage latency of sampled requests
	// per tenant (optional; DESIGN.md "Observability").
	Stages *metrics.StageSet
	// Events journals control-plane transitions — evictions, syncs —
	// this primary makes (optional; DESIGN.md "Observability").
	Events *obs.EventLog
}

// backupHandle is the primary's view of one attached backup.
type backupHandle struct {
	backup *Backup // the in-process peer (gives rkeys and the answer step)
	*link          // this primary's connection to it, owned here

	mu  sync.Mutex  // one control RPC in flight per backup
	msg wire.MsgBuf // the RPC in flight is built here (guarded by mu)
}

// link is one primary-to-backup connection: a QP each way and the two
// slots a control RPC uses. The primary writes a request into the
// backup's control slot and runs the backup's answer step, which writes
// the ack line into the primary's ack slot. Attach builds a link whole
// and never edits it, so a backup re-attached to a new primary gets a
// link of its own, and closing the old one touches nothing of the new.
type link struct {
	// toBackup carries requests, and signalled writes into the backup's
	// log buffer: a put's record and Sync's tail mirror, both under the
	// engine lock, so its completion queue is one deep.
	toBackup  *rdma.QP
	toPrimary *rdma.QP // ack lines

	ctl *rdma.MemoryRegion // the backup's control slot, on its endpoint
	ack *rdma.MemoryRegion // the primary's ack slot, on its endpoint

	// lastReq and lastAck deduplicate retried requests (guarded by the
	// handle's mu): the primary serializes RPCs per backup and a retry
	// reuses its RequestID, so this one-entry cache gives at-most-once
	// handler execution — a retry whose original was handled but whose
	// ack was lost gets the cached ack instead of a second run. Request
	// IDs are the primary's, so the cache is the link's: another
	// primary's IDs do not match it.
	lastReq uint64
	lastAck []byte
	// line is where the answer step reads a request's header line (guarded
	// by the handle's mu); one on the stack would escape to the heap.
	line [wire.HeaderSize]byte
}

// close tears the link down at both ends: later writes on it fail with
// rdma.ErrDisconnected, and both slots are unpinned.
func (h *backupHandle) close() {
	h.toBackup.Close()
	h.toPrimary.Close()
	h.toBackup.Local().Deregister(h.ack)
	h.backup.unlink(h.ctl)
}

// Primary is the primary-side replica of one region. It implements
// lsm.Listener: the engine's append/compaction events drive the
// replication protocol.
type Primary struct {
	cfg   PrimaryConfig
	retry RetryPolicy

	mu sync.Mutex
	db *lsm.DB
	// backups is copy-on-write: attach, detach and evict install a new
	// slice and never edit one in place, so handles() hands the per-put
	// path the current list itself, not a copy of it.
	backups []*backupHandle
	reqID   atomic.Uint64
	repErr  atomic.Value // first replication error (type error)

	// evictions records backups declared dead; deficit counts those not
	// yet replaced by a Sync (the degraded-state report the master acts
	// on, §3.5).
	evictions []Eviction
	deficit   int

	// job is the replication state of the engine's one in-flight
	// compaction job, from OnCompactionStart to OnCompactionDone (nil
	// between jobs).
	job *jobState

	// ship is where an index segment or a log image Sync replays is
	// built and sent from, to each backup in turn: by the engine's one
	// compaction job, or by Sync, which runs between jobs.
	ship wire.MsgBuf
}

// jobState is the primary's view of the in-flight compaction job.
type jobState struct {
	id uint64
	// targets are the backups that acknowledged the job's
	// CompactionStart and so hold staging state for it. The job's
	// segments and its done message go to them only: a backup attached
	// mid-job never sees a job it missed the start of (Sync seeds it at
	// the next job boundary instead).
	targets []*backupHandle
}

// Eviction records one backup the primary declared dead.
type Eviction struct {
	// Backup is the evicted backup's server name.
	Backup string
	// Cause is the error that exhausted the retry policy.
	Cause error
}

var _ lsm.Listener = (*Primary)(nil)

// NewPrimary creates the primary-side replica state. Bind the engine
// afterwards with SetDB (the engine takes the Primary as its Listener).
func NewPrimary(cfg PrimaryConfig) *Primary {
	return &Primary{
		cfg:   cfg,
		retry: cfg.Retry.withDefaults(),
	}
}

// SetDB binds the engine after construction (the engine's Options take
// this Primary as Listener, so the two reference each other).
func (p *Primary) SetDB(db *lsm.DB) { p.db = db }

// DB returns the bound engine.
func (p *Primary) DB() *lsm.DB { return p.db }

// Mode returns the replication mode.
func (p *Primary) Mode() Mode { return p.cfg.Mode }

// Err returns the first replication error observed, if any. The engine's
// listener interface cannot propagate errors, so callers poll this.
func (p *Primary) Err() error {
	if v := p.repErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

func (p *Primary) setErr(err error) {
	if err == nil {
		return
	}
	p.repErr.CompareAndSwap(nil, fmt.Errorf("replica: primary %s region %d: %w",
		p.cfg.ServerName, p.cfg.RegionID, err))
}

func (p *Primary) charge(c metrics.Component, n uint64) {
	if p.cfg.Cycles != nil {
		p.cfg.Cycles.Charge(c, n)
	}
}

// Attach wires a backup to this primary: a QP each way, a control slot
// on the backup's endpoint and an ack slot on the primary's. It starts
// no goroutine: the backup answers each request on the primary's
// goroutine (Backup.answer). It fails, attaching nothing, when either
// node's endpoint is closed (rdma.ErrAlreadyClosed): its machine crashed.
func Attach(p *Primary, b *Backup) error {
	pep, bep := p.cfg.Endpoint, b.cfg.Endpoint
	// The control slot holds the largest request: an IndexSegment whose
	// frame is a whole segment, or a GCRelease of thousands of segments.
	ctlSize := wire.MessageSize(wire.IndexSegment{}.Size() + int(b.geo.SegmentSize()) + shipcodec.MaxOverhead)
	ctl, err := register(bep, max(ctlSize, gcReleaseSlot))
	if err != nil {
		return err
	}
	ack, err := register(pep, ackRecvSize)
	if err != nil {
		bep.Deregister(ctl)
		return err
	}
	l := &link{
		toBackup:  rdma.Connect(pep, bep, 1),
		toPrimary: rdma.Connect(bep, pep, 0), // ack lines are unsignalled
		ctl:       ctl,
		ack:       ack,
	}
	h := &backupHandle{backup: b, link: l}

	b.mu.Lock()
	b.ctls = append(b.ctls, l.ctl)
	b.mu.Unlock()

	p.mu.Lock()
	p.backups = append(slices.Clone(p.backups), h)
	p.mu.Unlock()
	return nil
}

// register pins one of a link's slots at ep.
func register(ep *rdma.Endpoint, size int) (*rdma.MemoryRegion, error) {
	mr, err := ep.Register(size)
	if err != nil {
		return nil, fmt.Errorf("replica: registering a %d-byte slot at %s: %w", size, ep.Name(), err)
	}
	return mr, nil
}

// Detach severs the connection to a backup (failure injection and
// shutdown): the link's QPs close and its slots are unpinned.
func (p *Primary) Detach(b *Backup) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, h := range p.backups {
		if h.backup == b {
			h.close()
			p.backups = slices.Delete(slices.Clone(p.backups), i, i+1)
			return
		}
	}
}

// DetachAll severs all backups (primary shutdown).
func (p *Primary) DetachAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.backups {
		h.close()
	}
	p.backups = nil
}

// handles returns the attached backups: the current copy-on-write list,
// read-only for the caller.
func (p *Primary) handles() []*backupHandle {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backups
}

// Backups returns the attached backup replicas.
func (p *Primary) Backups() []*Backup {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Backup, len(p.backups))
	for i, h := range p.backups {
		out[i] = h.backup
	}
	return out
}

// gcReleaseSlot is the control slot a GCRelease may fill.
const gcReleaseSlot = 64 << 10

// ackRecvSize fits every ack: a reply whose status byte rides in its one
// line, or an error text, which buildAck cuts to what this size holds.
const ackRecvSize = 1024

// RemoteError is a handler failure a backup reported in a FlagError
// ack: the RPC round trip itself succeeded, so retrying is pointless
// (the backup would replay the same cached ack) and the backup stays
// attached — the failure belongs to the request, not the replica.
type RemoteError struct {
	// Op is the reply opcode carrying the error.
	Op wire.Op
	// Msg is the backup's error text.
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("replica: backup rejected %v: %s", e.Op, e.Msg)
}

// rpc performs one synchronous control round trip with a backup. An
// attempt writes the request into the backup's control slot,
// unsignalled, and runs the backup's answer step; the ack is in the
// primary's ack slot when that returns, or it never comes. A missed ack
// — the request or the ack dropped on the wire, or a backup that stopped
// answering — is retried after the backoff with the SAME RequestID: the
// backup deduplicates re-deliveries and replays its cached ack, so
// non-idempotent handlers never run twice even when only the ack was
// lost.
func (p *Primary) rpc(h *backupHandle, op wire.Op, payload []byte) error {
	return p.rpcIn(h, &h.msg, op, payload)
}

// rpcIn is rpc with the request finished in mb, in place when payload
// was built on mb.Reserve's slice. A write copies the message into the
// backup's control slot, so one buffer serves an RPC and its retries.
func (p *Primary) rpcIn(h *backupHandle, mb *wire.MsgBuf, op wire.Op, payload []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	reqID := p.reqID.Add(1)
	msg := mb.Finish(wire.Header{
		Opcode:    op,
		RegionID:  uint16(p.cfg.RegionID),
		RequestID: reqID,
	}, payload)
	pol := p.retry
	var lastErr error
	for attempt := 0; attempt <= pol.MaxRetries; attempt++ {
		if attempt > 0 {
			p.cfg.Failures.RecordRetry()
			time.Sleep(pol.backoff(attempt))
		}
		if err := h.toBackup.WriteUnsignaled(h.ctl.RKey(), 0, msg); err != nil {
			if errors.Is(err, rdma.ErrDisconnected) {
				return err // the QP is gone; retrying cannot help
			}
			lastErr = err
			continue
		}
		h.backup.answer(h.link)
		err := h.takeAck(reqID)
		if err == nil {
			return nil
		}
		var rerr *RemoteError
		if errors.As(err, &rerr) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("replica: backup %s unresponsive to %v after %d attempts: %w",
		h.backup.cfg.ServerName, op, pol.MaxRetries+1, lastErr)
}

// takeAck takes the ack of request reqID out of the ack slot, as a
// client takes a reply: the line's ReplyMagic, its RequestID, then a
// clear. The backup's answer step has returned, so nothing lands later:
// an empty slot, or another request's ack, is a missed ack
// (rdma.ErrTimeout). A FlagError ack is a *RemoteError. Caller holds
// h.mu.
func (h *backupHandle) takeAck(reqID uint64) error {
	var line [wire.ReplyLine]byte
	ok, err := h.ack.ReadIfWord(0, line[:], wire.ReplyMagic)
	if err != nil {
		return err
	}
	if !ok {
		return rdma.ErrTimeout
	}
	ah, err := wire.DecodeReplyHeader(line[:])
	var text []byte
	if err == nil && ah.Flags&wire.FlagError != 0 {
		if ah.Inline() {
			text = wire.ReplyInlinePayload(line[:], ah)
		} else {
			text = make([]byte, ah.PayloadSize)
			err = h.ack.ReadAt(wire.ReplyLine, text)
		}
	}
	if cerr := h.ack.Clear(0, h.ack.Size()); err == nil {
		err = cerr
	}
	switch {
	case err != nil:
		return err
	case ah.RequestID != reqID:
		return rdma.ErrTimeout
	case ah.Flags&wire.FlagError != 0:
		return &RemoteError{Op: ah.Opcode, Msg: string(text)}
	}
	return nil
}

// writeLog writes data into the backup's log buffer at off and waits for
// its completion under the retry policy, recording the wait as a
// per-backup "ack" request span when rt is non-nil. A dropped write never
// completes, so the completion deadline doubles as the liveness check;
// re-issuing the identical write is idempotent. Caller holds the engine
// lock (lsm.DB), so the link's one completion is this write's.
func (p *Primary) writeLog(h *backupHandle, off int, data []byte, rt *obs.ReqTrace) error {
	pol := p.retry
	var lastErr error
	for attempt := 0; attempt <= pol.MaxRetries; attempt++ {
		if attempt > 0 {
			p.cfg.Failures.RecordRetry()
			time.Sleep(pol.backoff(attempt))
		}
		if err := h.toBackup.Write(h.backup.logBuf.RKey(), off, data, 0); err != nil {
			if errors.Is(err, rdma.ErrDisconnected) {
				return err
			}
			lastErr = err
			continue
		}
		var ackStart time.Time
		if rt != nil {
			ackStart = time.Now()
		}
		c, err := h.toBackup.WaitCompletionTimeout(pol.AckTimeout)
		if err == nil && c.Delay >= pol.AckTimeout {
			err = rdma.ErrTimeout // completed, but past the deadline
		}
		if err != nil {
			if errors.Is(err, rdma.ErrDisconnected) {
				return err
			}
			lastErr = err
			continue
		}
		if rt != nil {
			ackDur := time.Since(ackStart)
			rt.Record(obs.Span{
				Node:   p.cfg.ServerName,
				Cat:    "request",
				Name:   "ack",
				Backup: h.backup.cfg.ServerName,
				Start:  ackStart,
				Dur:    ackDur,
			})
			p.cfg.Stages.Record(metrics.StageAck, rt.Tenant(), rt.ID(), ackDur)
		}
		return nil
	}
	return fmt.Errorf("replica: backup %s write unacknowledged after %d attempts: %w",
		h.backup.cfg.ServerName, pol.MaxRetries+1, lastErr)
}

// evict declares a backup dead and detaches it: the handle leaves the
// replication group, its in-flight ship state dies with its link, and
// the primary keeps serving
// Puts/Gets with the survivors — graceful degradation until the master
// attaches a replacement and drives Sync (§3.5). Idempotent: only the
// first removal of a handle counts.
func (p *Primary) evict(h *backupHandle, cause error) {
	p.mu.Lock()
	found := false
	for i, cand := range p.backups {
		if cand == h {
			p.backups = slices.Delete(slices.Clone(p.backups), i, i+1)
			found = true
			break
		}
	}
	if found {
		p.evictions = append(p.evictions, Eviction{Backup: h.backup.cfg.ServerName, Cause: cause})
		p.deficit++
	}
	p.mu.Unlock()
	if !found {
		return
	}
	p.cfg.Failures.RecordEviction()
	p.cfg.Failures.EnterDegraded()
	p.cfg.Events.Record(obs.Event{
		Type: obs.EvBackupEvicted, Level: obs.LevelWarn, Node: p.cfg.ServerName,
		Msg: "backup declared dead, replication degraded",
		Fields: map[string]string{
			"region": fmt.Sprint(p.cfg.RegionID),
			"backup": h.backup.cfg.ServerName,
			"cause":  fmt.Sprint(cause),
		},
	})
	h.close()
}

// repaired closes one degraded window after a successful Sync restored
// a replica slot.
func (p *Primary) repaired() {
	p.mu.Lock()
	open := p.deficit > 0
	if open {
		p.deficit--
	}
	p.mu.Unlock()
	if open {
		p.cfg.Failures.ExitDegraded()
	}
}

// Evictions returns the backups this primary declared dead, oldest
// first.
func (p *Primary) Evictions() []Eviction {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Eviction(nil), p.evictions...)
}

// Degraded reports whether the replication group currently runs below
// its configured strength (evictions not yet repaired by a Sync). The
// master polls this to decide when to attach a replacement.
func (p *Primary) Degraded() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deficit > 0
}

// OnAppend replicates one value-log record: flush-tail handshake when
// the previous tail sealed, then a one-sided RDMA write of the record
// into every backup's log buffer at the same offset, then wait for the
// work completions (§3.2). When the append belongs to a sampled
// request, rt records one "ship" span per backup (the whole record
// transfer) with a nested "ack" span for the completion wait, so the
// request's Chrome trace shows its full replication fan-out. An
// unsampled append (rt nil) reads no clock.
func (p *Primary) OnAppend(res vlog.AppendResult, rt *obs.ReqTrace) {
	p.OnSeal(res.Sealed)
	// A failing backup is evicted and the append continues with the
	// survivors: one dead replica must not block the write path (§3.5).
	// Reliable QP semantics still hold per surviving backup — the write
	// completion is awaited before the client is acknowledged.
	for _, h := range p.handles() {
		var shipStart time.Time
		if rt != nil {
			shipStart = time.Now()
		}
		if err := p.writeLog(h, int(res.TailPos), res.Rec, rt); err != nil {
			p.evict(h, err)
			continue
		}
		if rt != nil {
			shipDur := time.Since(shipStart)
			rt.Record(obs.Span{
				Node:   p.cfg.ServerName,
				Cat:    "request",
				Name:   "ship",
				Backup: h.backup.cfg.ServerName,
				Bytes:  int64(len(res.Rec)),
				Start:  shipStart,
				Dur:    shipDur,
			})
			p.cfg.Stages.Record(metrics.StageShip, rt.Tenant(), rt.ID(), shipDur)
		}
		p.charge(metrics.CompLogReplication, p.cfg.Cost.RDMAWrite(len(res.Rec)))
	}
}

// OnCompactionStart announces a compaction job to Send-Index backups so
// they open job-keyed staging state (index map + pending segments), and
// records which of them did: those are the job's ship targets.
//
// A move ships nothing, so it is announced to no backup: its done alone
// tells every backup to relabel the level (OnCompactionDone).
func (p *Primary) OnCompactionStart(job lsm.CompactionJob) {
	if p.cfg.Mode != SendIndex || job.Move {
		return
	}
	st := &jobState{id: job.ID}
	payload := wire.CompactionStart{
		RegionID: uint16(p.cfg.RegionID),
		JobID:    job.ID,
		SrcLevel: uint8(job.SrcLevel),
		DstLevel: uint8(job.DstLevel),
		Filter:   job.Filter,
	}.Encode(nil)
	for _, h := range p.handles() {
		p.charge(metrics.CompSendIndex, p.cfg.Cost.RDMAPost)
		if err := p.rpc(h, wire.OpCompactionStart, payload); err != nil {
			p.evict(h, err)
			continue
		}
		st.targets = append(st.targets, h)
	}
	p.mu.Lock()
	p.job = st
	p.mu.Unlock()
}

// jobTargets returns the still-attached backups that received the
// job's start.
func (p *Primary) jobTargets(jobID uint64) []*backupHandle {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.job
	if st == nil || st.id != jobID {
		return nil
	}
	var out []*backupHandle
	for _, h := range st.targets {
		if slices.Contains(p.backups, h) {
			out = append(out, h)
		}
	}
	return out
}

// OnIndexSegment ships one sealed index segment: one control request
// that carries the segment's frame and the translation metadata (§3.3).
// The job's builder invokes it as it seals the segment, before it builds
// the later ones — the Send-Index streaming.
//
// The codec runs once per segment, not per backup: every backup
// receives the same request. A backup that stops responding mid-ship, or
// cannot decode the frame (a FlagError ack), is evicted and the
// remaining backups still receive the segment — the compaction job must
// complete on the survivors rather than wedge inside the ship.
func (p *Primary) OnIndexSegment(job lsm.CompactionJob, seg btree.EmittedSegment) {
	if p.cfg.Mode != SendIndex {
		return
	}
	payload, frame, err := p.indexSegment(job.ID, job.DstLevel, seg.Seg, seg.Data)
	if err != nil {
		p.setErr(err)
		return
	}
	for _, h := range p.jobTargets(job.ID) {
		shipStart := time.Now()
		p.charge(metrics.CompSendIndex, p.cfg.Cost.RDMAWrite(wire.SentSize(len(payload))))
		if err := p.rpcIn(h, &p.ship, wire.OpIndexSegment, payload); err != nil {
			p.evict(h, err)
			continue
		}
		p.cfg.Ship.RecordShip(len(seg.Data), frame)
		p.cfg.Trace.Record(obs.Span{
			Cat: "replication", Name: "ship", JobID: job.ID,
			Backup: h.backup.cfg.ServerName, Bytes: int64(frame),
			Start: shipStart, Dur: time.Since(shipStart),
		})
	}
}

// indexSegment builds in p.ship the payload that ships segment seg's
// image to level lvl of job jobID, and returns it with its frame's
// length: the one place a primary runs the ship codec, for compaction
// ships and Sync alike. Without a codec the image ships raw, codec 0.
func (p *Primary) indexSegment(jobID uint64, lvl int, seg storage.SegmentID, image []byte) (payload []byte, frame int, err error) {
	req := wire.IndexSegment{
		RegionID:   uint16(p.cfg.RegionID),
		JobID:      jobID,
		DstLevel:   uint8(lvl),
		PrimarySeg: uint32(seg),
	}
	fields := req.Size()
	payload = p.ship.Reserve(fields + shipcodec.MaxOverhead + len(image))
	if p.cfg.ShipCodec == shipcodec.None {
		req.Frame = image
		return req.Encode(payload), len(image), nil
	}
	req.Codec = uint8(p.cfg.ShipCodec)
	payload, err = shipcodec.AppendPages(req.Encode(payload), p.cfg.ShipCodec, image, p.cfg.ShipPageSize)
	return payload, len(payload) - fields, err
}

// OnSeal is the flush-tail handshake of a sealed tail (nil: none): every
// backup persists its mirrored log buffer. OnAppend runs it for a
// natural seal, and the engine for a GC relocation commit point, which
// force-sealed a partial tail holding relocated records before any
// victim segment can be released (DESIGN.md "Value-log GC"); both run
// under the engine lock, so backups observe it in log order.
func (p *Primary) OnSeal(sealed *vlog.Sealed) {
	if sealed == nil {
		return
	}
	payload := wire.FlushTail{
		RegionID:   uint16(p.cfg.RegionID),
		PrimarySeg: uint32(sealed.Seg),
	}.Encode(nil)
	for _, h := range p.handles() {
		p.charge(metrics.CompLogReplication, p.cfg.Cost.RDMAWrite(wire.SentSize(len(payload))))
		if err := p.rpc(h, wire.OpFlushTail, payload); err != nil {
			p.evict(h, err)
		}
	}
}

// OnRelease propagates a cost-based GC reclaim: backups free their
// local copies of the victim segments and drop the log-map names
// (DESIGN.md "Value-log GC"). The
// primary has already relocated, sealed, and compacted, so no shipped
// index entry references the victims anymore; a backup that misses the
// message (crash, eviction) merely leaks the segments until its next
// full resync.
func (p *Primary) OnRelease(segs []storage.SegmentID) {
	if p.cfg.Mode == NoReplication || len(segs) == 0 {
		return
	}
	ids := make([]uint32, len(segs))
	for i, s := range segs {
		ids[i] = uint32(s)
	}
	payload := wire.GCRelease{
		RegionID: uint16(p.cfg.RegionID),
		Segs:     ids,
	}.Encode(nil)
	for _, h := range p.handles() {
		p.charge(metrics.CompLogReplication, p.cfg.Cost.RDMAWrite(wire.SentSize(len(payload))))
		if err := p.rpc(h, wire.OpGCRelease, payload); err != nil {
			p.evict(h, err)
		}
	}
}

// OnCompactionDone hands backups the new root so they can install the
// shipped level (§3.3, "the primary sends the offset of the root node").
// A move shipped nothing and was announced to no backup: every attached
// backup holds the moved level already, or — attached but not yet
// seeded by Sync — holds none and is seeded with it, and relabels it
// (Backup.handleCompactionDone).
func (p *Primary) OnCompactionDone(res lsm.CompactionResult) {
	if p.cfg.Mode != SendIndex {
		return
	}
	targets := p.handles()
	if !res.Moved {
		p.mu.Lock()
		st := p.job
		p.mu.Unlock()
		if st == nil || st.id != res.JobID {
			return // the job started before this primary was listening
		}
		defer func() {
			p.mu.Lock()
			p.job = nil
			p.mu.Unlock()
		}()
		targets = p.jobTargets(res.JobID)
	}
	payload := wire.CompactionDone{
		RegionID:  uint16(p.cfg.RegionID),
		JobID:     res.JobID,
		SrcLevel:  uint8(res.SrcLevel),
		DstLevel:  uint8(res.DstLevel),
		Root:      uint64(res.Built.Root),
		NumKeys:   uint32(res.Built.NumKeys),
		Watermark: uint64(res.Watermark),
		Moved:     res.Moved,
	}.Encode(nil)
	for _, h := range targets {
		p.charge(metrics.CompSendIndex, p.cfg.Cost.RDMAWrite(wire.SentSize(len(payload))))
		if err := p.rpc(h, wire.OpCompactionDone, payload); err != nil {
			p.evict(h, err)
		}
	}
}
