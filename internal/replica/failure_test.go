package replica

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tebis/internal/btree"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/rdma"
	"tebis/internal/storage"
	"tebis/internal/vlog"
	"tebis/internal/wire"
)

// fastRetry keeps failure tests quick: a dead backup is declared dead
// after ~80ms instead of the default ~10s.
func fastRetry() RetryPolicy {
	return RetryPolicy{AckTimeout: 40 * time.Millisecond, MaxRetries: 1, Backoff: time.Millisecond}
}

// TestBackupFailureMidCompactionEvictsAndCompletes is the tentpole
// acceptance test at the replica layer: a backup dies between receiving
// an IndexSegment and acknowledging it (its ack — and everything after —
// vanishes on the wire). The primary must retry, evict the dead backup,
// finish the compaction on the survivor without wedging the scheduler,
// keep serving Puts and Gets, and report the degraded state. A Sync to
// a replacement backup then restores the replication factor and serves
// identical data.
func TestBackupFailureMidCompactionEvictsAndCompletes(t *testing.T) {
	failures := &metrics.FailureStats{}
	r := newRigCfg(t, SendIndex, 2, nil, func(pc *PrimaryConfig) {
		pc.Retry = fastRetry()
		pc.Failures = failures
	}, nil)

	// Arm the fault on backup0's NIC: the first IndexSegment request line
	// lands, then the node goes silent — every later write touching it
	// (its ack out, retries and data writes in) drops on the wire.
	var armed atomic.Bool
	r.epB[0].InjectFault(func(op rdma.FaultOp, from, to string, seq int, payload []byte) rdma.Fault {
		if armed.Load() {
			return rdma.Fault{Action: rdma.FaultDrop}
		}
		if op == rdma.FaultWrite && to == "backup0" {
			if h, err := wire.DecodeHeader(payload); err == nil && h.Opcode == wire.OpIndexSegment {
				armed.Store(true) // this command lands; its ack never will
			}
		}
		return rdma.Fault{}
	})

	const n = 2000
	for i := 0; i < n; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("user%08d", i)), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The compactor must drain — a dead backup must not wedge a job
	// inside its ship (lsm.Listener contract).
	if err := r.db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if !armed.Load() {
		t.Fatal("no compaction shipped a segment; fault never armed")
	}

	evs := r.primary.Evictions()
	if len(evs) != 1 || evs[0].Backup != "backup0" {
		t.Fatalf("evictions = %+v, want one eviction of backup0", evs)
	}
	if !r.primary.Degraded() {
		t.Fatal("primary not degraded after eviction")
	}
	if err := r.primary.Err(); err != nil {
		t.Fatalf("eviction poisoned the primary: %v", err)
	}
	snap := failures.Snapshot()
	if snap.Retries == 0 {
		t.Fatal("no retries recorded before eviction")
	}
	if snap.Evictions != 1 {
		t.Fatalf("evictions metric = %d, want 1", snap.Evictions)
	}
	if !snap.Degraded || snap.DegradedDuration <= 0 {
		t.Fatalf("degraded window not open: %+v", snap)
	}

	// Graceful degradation: the primary keeps serving with the survivor.
	if err := r.db.Put([]byte("after-eviction"), []byte("still-serving")); err != nil {
		t.Fatal(err)
	}
	v, found, err := r.db.Get([]byte("after-eviction"))
	if err != nil || !found || string(v) != "still-serving" {
		t.Fatalf("Get after eviction = %q, %v, %v", v, found, err)
	}
	if got := len(r.primary.Backups()); got != 1 {
		t.Fatalf("%d backups attached after eviction, want 1", got)
	}

	// The master's repair: attach a replacement and Sync. The degraded
	// window closes and the replacement holds identical data.
	nb := r.addEmptyBackup(SendIndex)
	if _, err := r.primary.Sync(nb); err != nil {
		t.Fatal(err)
	}
	if r.primary.Degraded() {
		t.Fatal("primary still degraded after Sync")
	}
	snap = failures.Snapshot()
	if snap.Degraded {
		t.Fatal("degraded window still open after Sync")
	}
	if snap.ResyncBytes == 0 {
		t.Fatal("Sync moved no resync bytes")
	}

	r.primary.Detach(nb)
	db2, err := nb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i += 13 {
		k := fmt.Sprintf("user%08d", i)
		v, found, err := db2.Get([]byte(k))
		if err != nil || !found || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("replacement Get(%s) = %q, %v, %v", k, v, found, err)
		}
	}
	if v, found, _ := db2.Get([]byte("after-eviction")); !found || string(v) != "still-serving" {
		t.Fatal("replacement missing post-eviction write")
	}
}

// TestBackupCrashEvictsOnNextAppend exercises the Crash path: the
// backup's buffers deregister and its QPs close, so the primary's next
// append fails fast (no timeout wait) and evicts.
func TestBackupCrashEvictsOnNextAppend(t *testing.T) {
	failures := &metrics.FailureStats{}
	r := newRigCfg(t, SendIndex, 2, nil, func(pc *PrimaryConfig) {
		pc.Retry = fastRetry()
		pc.Failures = failures
	}, nil)
	r.load(500, 20)

	r.backups[0].Crash()
	for i := 0; i < 300; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("post%06d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if evs := r.primary.Evictions(); len(evs) != 1 || evs[0].Backup != "backup0" {
		t.Fatalf("evictions = %+v", evs)
	}
	if failures.Snapshot().Evictions != 1 {
		t.Fatal("eviction metric not recorded")
	}
	// The survivor still replicates.
	if len(r.primary.Backups()) != 1 {
		t.Fatal("survivor lost")
	}
}

// TestSlowBackupIsAbsorbed: a backup whose every incoming write — log
// appends, index ships, control requests — stalls on the wire, well
// below AckTimeout, slows the puts it replicates but is neither retried
// nor evicted, and loses nothing: every acked key reads back byte for
// byte from the primary and, after Promote, from the backup.
func TestSlowBackupIsAbsorbed(t *testing.T) {
	const (
		stall   = 2 * time.Millisecond
		before  = 300 // puts before the stall
		stalled = 150 // puts while every write into the backup stalls
		after   = 300 // puts after it clears
	)
	failures := &metrics.FailureStats{}
	r := newRigCfg(t, SendIndex, 1, nil, func(pc *PrimaryConfig) {
		pc.Retry = RetryPolicy{AckTimeout: 25 * stall, MaxRetries: 1, Backoff: time.Millisecond}
		pc.Failures = failures
	}, nil)
	key := func(i int) []byte { return []byte(fmt.Sprintf("slow%06d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%d-%0*d", i, i%97, i)) }
	put := func(from, to int) {
		for i := from; i < to; i++ {
			if err := r.db.Put(key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	put(0, before)
	var delayed atomic.Int64
	r.epB[0].InjectFault(func(op rdma.FaultOp, _, to string, _ int, _ []byte) rdma.Fault {
		if op != rdma.FaultWrite || to != "backup0" {
			return rdma.Fault{}
		}
		delayed.Add(1)
		return rdma.Fault{Action: rdma.FaultDelay, Delay: stall}
	})
	put(before, before+stalled)
	r.epB[0].InjectFault(nil)
	put(before+stalled, before+stalled+after)
	if err := r.db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	r.checkHealthy()

	if evs := r.primary.Evictions(); len(evs) != 0 {
		t.Fatalf("a slow backup was evicted: %+v", evs)
	}
	if r.primary.Degraded() {
		t.Fatal("a slow backup left the primary degraded")
	}
	if got := failures.Snapshot().Retries; got != 0 {
		t.Fatalf("%d retries against a backup that missed no deadline", got)
	}
	if n := delayed.Load(); n < stalled {
		t.Fatalf("%d writes into the backup stalled, want at least one per stalled put (%d)", n, stalled)
	}

	const n = before + stalled + after
	check := func(who string, get func([]byte) ([]byte, bool, error)) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, found, err := get(key(i))
			if err != nil || !found || !bytes.Equal(v, val(i)) {
				t.Fatalf("%s: Get(%s) = %q, %v, %v; want %q", who, key(i), v, found, err, val(i))
			}
		}
	}
	check("primary", r.db.Get)
	r.primary.Detach(r.backups[0])
	db2, err := r.backups[0].Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check("promoted backup", db2.Get)
}

// TestRPCRetryRecoversFromTransientDrop checks that the retry path,
// not just eviction, works: exactly one control line vanishes — a
// FlushTail request on its way in, or its ack on its way out — and the
// retried attempt (same RequestID, deduplicated at the backup) succeeds
// with no eviction. Each flush's handler runs once: the backup charges
// one segment write per distinct FlushTail request, the retry of a lost
// ack replaying the cached ack instead.
func TestRPCRetryRecoversFromTransientDrop(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop func(from, to string, payload []byte) bool
	}{
		{"request", func(_, to string, payload []byte) bool {
			h, err := wire.DecodeHeader(payload)
			return to == "backup0" && err == nil && h.Opcode == wire.OpFlushTail
		}},
		{"ack", func(from, _ string, payload []byte) bool {
			h, err := wire.DecodeReplyHeader(payload)
			return from == "backup0" && err == nil && h.Opcode == wire.OpFlushTailAck
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failures := &metrics.FailureStats{}
			r := newRigCfg(t, SendIndex, 1, nil, func(pc *PrimaryConfig) {
				pc.Retry = RetryPolicy{AckTimeout: 40 * time.Millisecond, MaxRetries: 3, Backoff: time.Millisecond}
				pc.Failures = failures
			}, nil)

			var dropped atomic.Bool
			var mu sync.Mutex
			flushes := map[uint64]bool{} // FlushTail request IDs that landed
			r.epB[0].InjectFault(func(op rdma.FaultOp, from, to string, seq int, payload []byte) rdma.Fault {
				if op != rdma.FaultWrite {
					return rdma.Fault{}
				}
				if !dropped.Load() && tc.drop(from, to, payload) {
					dropped.Store(true)
					return rdma.Fault{Action: rdma.FaultDrop}
				}
				if h, err := wire.DecodeHeader(payload); err == nil && h.Opcode == wire.OpFlushTail {
					mu.Lock()
					flushes[h.RequestID] = true
					mu.Unlock()
				}
				return rdma.Fault{}
			})

			r.load(2000, 30)
			if !dropped.Load() {
				t.Fatal("no FlushTail line was ever dropped")
			}
			if evs := r.primary.Evictions(); len(evs) != 0 {
				t.Fatalf("transient drop caused eviction: %+v", evs)
			}
			if got := failures.Snapshot().Retries; got != 1 {
				t.Fatalf("%d retries recorded, want 1 for the dropped line", got)
			}
			mu.Lock()
			handled := uint64(len(flushes))
			mu.Unlock()
			segWrite := metrics.DefaultCostModel().WriteIO(int(r.backups[0].geo.SegmentSize()))
			if got := r.cyB[0].Snapshot()[metrics.CompLogReplication]; got != handled*segWrite {
				t.Fatalf("the backup charged %d cycles of flushes, want %d for %d requests handled once each",
					got, handled*segWrite, handled)
			}
			// The backup converged despite the drop: its levels match.
			bLevels := r.backups[0].LevelStates(lsmOpts().MaxLevels)
			for i, st := range r.db.Levels() {
				if st.NumKeys != bLevels[i].NumKeys {
					t.Fatalf("level %d: primary %d keys, backup %d", i+1, st.NumKeys, bLevels[i].NumKeys)
				}
			}
		})
	}
}

// testSyncPromoteRoundTrip is the satellite regression for the Sync
// tail-mapping bug (`_ = tailSeg`): after Sync the backup must know
// which primary segment its mirrored tail belongs to, so a Promote
// adopts the tail into the exact local segment shipped indexes point
// at. Every key — including ones living only in the unflushed tail —
// must read back from the promoted engine.
func testSyncPromoteRoundTrip(t *testing.T, mode Mode) {
	r := newRig(t, mode, 1)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("user%08d", i)), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	_, _, tailLen := r.db.Log().TailSnapshot()
	if tailLen == 0 {
		// Make sure the unflushed-tail path is actually exercised.
		if err := r.db.Put([]byte("tail-key"), []byte("tail-val")); err != nil {
			t.Fatal(err)
		}
	}

	nb := r.addEmptyBackup(mode)
	if _, err := r.primary.Sync(nb); err != nil {
		t.Fatal(err)
	}
	if mode == BuildIndex {
		if err := nb.DB().WaitIdle(); err != nil {
			t.Fatal(err)
		}
	}
	// The fix under test: Sync registered the tail's primary segment.
	if _, ok, err := nb.LogMap().UnflushedLocal(); err != nil || !ok {
		t.Fatalf("synced backup has no unflushed tail mapping (ok=%v, err=%v)", ok, err)
	}

	r.primary.Detach(nb)
	db2, err := nb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user%08d", i)
		v, found, err := db2.Get([]byte(k))
		if err != nil || !found || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("round-trip Get(%s) = %q, %v, %v", k, v, found, err)
		}
	}
}

func TestSyncPromoteRoundTripSendIndex(t *testing.T)  { testSyncPromoteRoundTrip(t, SendIndex) }
func TestSyncPromoteRoundTripBuildIndex(t *testing.T) { testSyncPromoteRoundTrip(t, BuildIndex) }

// encodeLogRecord appends one value-log record image (the on-wire/
// on-device format WalkImage decodes).
func encodeLogRecord(buf []byte, key, val string) []byte {
	return vlog.AppendEncoded(buf, []byte(key), []byte(val), false)
}

// TestPromotePersistsTailAsFullSegment: Promote reads every record of
// the replicated tail back and persists the adopted tail as a full,
// zero-padded segment image, so device reads through level pointers
// resolve.
func TestPromotePersistsTailAsFullSegment(t *testing.T) {
	const segSize = 16 << 10
	dev, err := storage.NewMemDevice(segSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	b, err := NewBackup(BackupConfig{
		RegionID:   1,
		ServerName: "b",
		Mode:       SendIndex,
		Device:     dev,
		Endpoint:   rdma.NewEndpoint("b"),
		Cost:       metrics.DefaultCostModel(),
		LSM:        lsmOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Mirror two records into the replicated tail buffer, the way a
	// primary's one-sided writes would.
	var img []byte
	img = encodeLogRecord(img, "alpha", "one")
	img = encodeLogRecord(img, "beta", "two")
	qp := rdma.Connect(rdma.NewEndpoint("primary"), b.cfg.Endpoint, 1)
	if err := qp.Write(b.logBuf.RKey(), 0, img, 0); err != nil {
		t.Fatal(err)
	}

	db, err := b.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, kv := range [][2]string{{"alpha", "one"}, {"beta", "two"}} {
		v, found, err := db.Get([]byte(kv[0]))
		if err != nil || !found || string(v) != kv[1] {
			t.Fatalf("promoted Get(%s) = %q, %v, %v", kv[0], v, found, err)
		}
	}

	// The adopted tail is persisted as a full segment image: the used
	// prefix followed by zero padding out to the segment size.
	tailSeg := db.Log().TailSegment()
	full := make([]byte, segSize)
	if err := dev.ReadAt(b.geo.Pack(tailSeg, 0), full); err != nil {
		t.Fatalf("full-segment read of adopted tail: %v", err)
	}
	for i := 0; i < len(img); i++ {
		if full[i] != img[i] {
			t.Fatalf("persisted byte %d = %#x, want %#x", i, full[i], img[i])
		}
	}
	for i := len(img); i < segSize; i++ {
		if full[i] != 0 {
			t.Fatalf("padding byte %d = %#x, want 0", i, full[i])
		}
	}
}

// TestRetryPolicyDefaults pins the zero-value and partial-value
// semantics of RetryPolicy.
func TestRetryPolicyDefaults(t *testing.T) {
	def := DefaultRetryPolicy()
	if got := (RetryPolicy{}).withDefaults(); got != def {
		t.Fatalf("zero policy = %+v, want defaults %+v", got, def)
	}
	p := RetryPolicy{AckTimeout: time.Second}.withDefaults()
	if p.AckTimeout != time.Second || p.MaxRetries != 0 || p.Backoff != def.Backoff {
		t.Fatalf("partial policy = %+v", p)
	}
	pol := RetryPolicy{Backoff: 2 * time.Millisecond, AckTimeout: time.Second, MaxRetries: 5}
	if pol.backoff(1) != 2*time.Millisecond || pol.backoff(3) != 8*time.Millisecond {
		t.Fatalf("backoff progression wrong: %v %v", pol.backoff(1), pol.backoff(3))
	}
}

// TestCrashLeavesNoGoroutines asserts that a crashed backup leaves no
// goroutine behind. A leaked one would pin the backup's engine (and its
// memory) for the life of the process.
func TestCrashLeavesNoGoroutines(t *testing.T) {
	for _, mode := range []Mode{SendIndex, BuildIndex} {
		t.Run(mode.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			r := newRig(t, mode, 2)
			r.load(1500, 40)
			if err := r.db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			for _, b := range r.backups {
				b.Crash()
				b.Crash() // idempotent: a second crash must not panic or hang
			}
			// A compaction job is one goroutine, already retired by
			// WaitIdle; only leaked backup goroutines can keep the count
			// above the baseline.
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if runtime.NumGoroutine() <= before {
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			t.Fatalf("goroutines: %d before rig, %d after Crash — backup goroutine leaked",
				before, runtime.NumGoroutine())
		})
	}
}

// TestReattachToASecondPrimary: a backup attached to a second primary
// while the first keeps sending it control RPCs serves both, each on a
// link of its own, and detaching the first closes the first's link only —
// the second primary's RPCs still succeed. Run it under -race: Attach
// used to rewire the backup's one set of queue pairs under the first
// primary's RPCs, and the first's detach closed the second's.
func TestReattachToASecondPrimary(t *testing.T) {
	r := newRigCfg(t, SendIndex, 1, nil, func(c *PrimaryConfig) { c.Retry = fastRetry() }, nil)
	b := r.backups[0]
	release := wire.GCRelease{RegionID: 1}.Encode(nil) // names no segment: a no-op to handle
	first := r.primary.handles()[0]
	var sent atomic.Int64
	firstErr := make(chan error, 1)
	go func() {
		for {
			if err := r.primary.rpc(first, wire.OpGCRelease, release); err != nil {
				firstErr <- err
				return
			}
			sent.Add(1)
		}
	}()
	for sent.Load() < 10 {
		runtime.Gosched()
	}

	p2 := NewPrimary(PrimaryConfig{
		RegionID: 1, ServerName: "primary2", Mode: SendIndex,
		Endpoint: rdma.NewEndpoint("primary2"), Cost: metrics.DefaultCostModel(), Retry: fastRetry(),
	})
	Attach(p2, b)
	t.Cleanup(p2.DetachAll)
	second := p2.handles()[0]
	rpcs := func(when string) {
		t.Helper()
		for i := 0; i < 100; i++ {
			if err := p2.rpc(second, wire.OpGCRelease, release); err != nil {
				t.Fatalf("second primary's RPC %d %s: %v", i, when, err)
			}
		}
	}
	rpcs("beside the first's")
	before := sent.Load()
	for sent.Load() < before+10 {
		select {
		case err := <-firstErr:
			t.Fatalf("first primary's RPC after the re-attach: %v", err)
		default:
			runtime.Gosched()
		}
	}

	r.primary.Detach(b)
	if err := <-firstErr; !errors.Is(err, rdma.ErrDisconnected) {
		t.Fatalf("first primary's RPC after its detach = %v, want ErrDisconnected", err)
	}
	rpcs("after the first's detach")
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestControlBuffersAreReused: a link carries every request in one
// control slot and every ack in one ack slot. A handled request's
// effects, and the ack cached for its retry, survive the next request
// landing in that slot: a retry that reuses a request ID with other
// bytes gets the first ack back and changes nothing, and both slots are
// empty once the primary has taken the ack.
func TestControlBuffersAreReused(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	p, b := r.primary, r.backups[0]
	h := p.handles()[0]
	flush := func(seg uint32) []byte {
		return wire.FlushTail{RegionID: uint16(p.cfg.RegionID), PrimarySeg: seg}.Encode(nil)
	}
	// Two flushes: the second lands over the first.
	locals := map[storage.SegmentID]storage.SegmentID{}
	for _, seg := range []storage.SegmentID{1001, 1002} {
		if err := p.rpc(h, wire.OpFlushTail, flush(uint32(seg))); err != nil {
			t.Fatal(err)
		}
		local, ok := b.LogMap().Lookup(seg)
		if !ok {
			t.Fatalf("flush of primary segment %d mapped nothing", seg)
		}
		locals[seg] = local
	}

	// A retry of the last request, its payload naming another segment.
	reqID := p.reqID.Load()
	var mb wire.MsgBuf
	retry := mb.Finish(wire.Header{
		Opcode:    wire.OpFlushTail,
		RegionID:  uint16(p.cfg.RegionID),
		RequestID: reqID,
	}, flush(1003))
	h.mu.Lock()
	err := h.toBackup.WriteUnsignaled(h.ctl.RKey(), 0, retry)
	var line [wire.ReplyLine]byte
	var landed bool
	if err == nil {
		b.answer(h.link)
		landed, err = h.ack.ReadIfWord(0, line[:], wire.ReplyMagic)
	}
	if err == nil {
		err = h.takeAck(reqID)
	}
	var left [2][wire.HeaderSize]byte
	ctlHeld, _ := h.ctl.ReadIfWord(0, left[0][:], wire.Magic)
	ackHeld, _ := h.ack.ReadIfWord(0, left[1][:], wire.ReplyMagic)
	h.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	ah, err := wire.DecodeReplyHeader(line[:])
	if !landed || err != nil || ah.RequestID != reqID || ah.Opcode != wire.OpFlushTailAck || ah.Flags&wire.FlagError != 0 {
		t.Fatalf("the retry was answered with %+v (%v, landed %v), want the cached ack of request %d", ah, err, landed, reqID)
	}
	if _, ok := b.LogMap().Lookup(1003); ok {
		t.Fatal("the retry ran its handler again")
	}
	for seg, local := range locals {
		if got, ok := b.LogMap().Lookup(seg); !ok || got != local {
			t.Fatalf("primary segment %d maps to %d (%v), was %d", seg, got, ok, local)
		}
	}
	if ctlHeld || ackHeld {
		t.Fatalf("after the round trip the control slot holds a request (%v), the ack slot an ack (%v)", ctlHeld, ackHeld)
	}
	r.checkHealthy()
}

// TestHandlerErrorSilencesTheLink: a request the backup fails to handle
// fails the backup and silences that link, so the primary's retries miss
// and it evicts the backup at its next control RPC.
func TestHandlerErrorSilencesTheLink(t *testing.T) {
	failures := &metrics.FailureStats{}
	r := newRigCfg(t, SendIndex, 1, nil, func(pc *PrimaryConfig) {
		pc.Retry = fastRetry()
		pc.Failures = failures
	}, nil)
	p, b := r.primary, r.backups[0]
	// A segment of a job the backup never saw start: its handler fails.
	stray := wire.IndexSegment{RegionID: uint16(p.cfg.RegionID), JobID: 999, Frame: make([]byte, 512)}.Encode(nil)
	err := p.rpc(p.handles()[0], wire.OpIndexSegment, stray)
	var rerr *RemoteError
	if err == nil || errors.As(err, &rerr) {
		t.Fatalf("an RPC the backup failed to handle returned %v, want a missed ack", err)
	}
	if b.Err() == nil {
		t.Fatal("the handler's error did not fail the backup")
	}
	if got := failures.Snapshot().Retries; got != uint64(fastRetry().MaxRetries) {
		t.Fatalf("%d retries, want %d", got, fastRetry().MaxRetries)
	}
	for i := 0; i < 2000 && len(p.Evictions()) == 0; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("user%08d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if evs := p.Evictions(); len(evs) != 1 || evs[0].Backup != "backup0" {
		t.Fatalf("evictions = %+v, want one eviction of backup0", evs)
	}
}

// TestCrashSeversEveryLink: a backup attached to two primaries and then
// crashed answers neither: each primary's control RPC fails at the
// write, as its log appends do.
func TestCrashSeversEveryLink(t *testing.T) {
	r := newRigCfg(t, SendIndex, 1, nil, func(c *PrimaryConfig) { c.Retry = fastRetry() }, nil)
	b := r.backups[0]
	p2 := NewPrimary(PrimaryConfig{
		RegionID: 1, ServerName: "primary2", Mode: SendIndex,
		Endpoint: rdma.NewEndpoint("primary2"), Cost: metrics.DefaultCostModel(), Retry: fastRetry(),
	})
	Attach(p2, b)
	t.Cleanup(p2.DetachAll)
	release := wire.GCRelease{RegionID: 1}.Encode(nil) // names no segment: a no-op to handle
	for _, p := range []*Primary{r.primary, p2} {
		if err := p.rpc(p.handles()[0], wire.OpGCRelease, release); err != nil {
			t.Fatalf("%s's RPC before the crash: %v", p.cfg.ServerName, err)
		}
	}
	b.Crash()
	for _, p := range []*Primary{r.primary, p2} {
		if err := p.rpc(p.handles()[0], wire.OpGCRelease, release); !errors.Is(err, rdma.ErrBadRKey) {
			t.Fatalf("%s's RPC after the crash = %v, want ErrBadRKey", p.cfg.ServerName, err)
		}
	}
}

// TestAttachToAClosedEndpointFails: a node whose endpoint closed (its
// machine crashed) cannot be attached: Attach returns
// rdma.ErrAlreadyClosed, pins nothing on the other node, and adds no
// backup to the primary.
func TestAttachToAClosedEndpointFails(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	b := r.backups[0]
	p2 := NewPrimary(PrimaryConfig{
		RegionID: 1, ServerName: "primary2", Mode: SendIndex,
		Endpoint: rdma.NewEndpoint("primary2"), Cost: metrics.DefaultCostModel(),
	})
	p2.cfg.Endpoint.Close()
	if err := Attach(p2, b); !errors.Is(err, rdma.ErrAlreadyClosed) {
		t.Fatalf("Attach from a closed primary endpoint = %v, want ErrAlreadyClosed", err)
	}
	if n := len(p2.handles()); n != 0 {
		t.Fatalf("the failed attach added %d backups", n)
	}
	b.mu.Lock()
	ctls := len(b.ctls)
	b.mu.Unlock()
	if ctls != 1 {
		t.Fatalf("the backup holds %d control slots after a failed attach, want its first link's 1", ctls)
	}
	b.cfg.Endpoint.Close()
	p3 := NewPrimary(PrimaryConfig{
		RegionID: 1, ServerName: "primary3", Mode: SendIndex,
		Endpoint: rdma.NewEndpoint("primary3"), Cost: metrics.DefaultCostModel(),
	})
	if err := Attach(p3, b); !errors.Is(err, rdma.ErrAlreadyClosed) {
		t.Fatalf("Attach to a closed backup endpoint = %v, want ErrAlreadyClosed", err)
	}
}

// TestAttachStartsNoGoroutine: attaching backups and syncing one starts
// no goroutine that outlives the calls, in either mode — the backup
// answers its control RPCs on the primary's goroutine.
func TestAttachStartsNoGoroutine(t *testing.T) {
	for _, mode := range []Mode{SendIndex, BuildIndex} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, mode, 0)
			r.load(600, 20)
			if err := r.db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			nb := []*Backup{r.addEmptyBackup(mode), r.addEmptyBackup(mode)}
			r.primary.DetachAll() // addEmptyBackup attaches; the count starts before that
			before := runtime.NumGoroutine()
			for _, b := range nb {
				Attach(r.primary, b)
			}
			if _, err := r.primary.Sync(nb[0]); err != nil {
				t.Fatal(err)
			}
			if db := nb[0].DB(); db != nil {
				if err := db.WaitIdle(); err != nil {
					t.Fatal(err)
				}
			}
			// A compaction job of the Build-Index backup's own engine is
			// one goroutine, which WaitIdle has retired or is retiring.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("goroutines: %d before attaching two backups and a Sync, %d after", before, n)
			}
		})
	}
}

// TestControlRPCBytes: one control RPC moves its request from the
// primary's NIC to the backup's and one ack line back — the bytes a
// two-sided send of the same messages counted — so replication's
// network amplification does not depend on how the control path runs.
// A shipped index segment is one such request, its frame its payload:
// one write into the backup per segment, not a frame staged ahead of a
// line that names it.
func TestControlRPCBytes(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	p := r.primary
	var writes atomic.Int64
	r.epB[0].InjectFault(func(op rdma.FaultOp, _, to string, _ int, _ []byte) rdma.Fault {
		if op == rdma.FaultWrite && to == "backup0" {
			writes.Add(1)
		}
		return rdma.Fault{}
	})
	job := lsm.CompactionJob{ID: 5, SrcLevel: 0, DstLevel: 1}
	p.OnCompactionStart(job)
	seg := btree.EmittedSegment{Seg: 9, Data: make([]byte, 8*lsmOpts().NodeSize)} // free nodes: nothing to rewrite
	flush := wire.FlushTail{RegionID: uint16(p.cfg.RegionID), PrimarySeg: 7}.Encode(nil)
	for _, c := range []struct {
		what    string
		payload []byte
		send    func() error
	}{
		{"flush", flush, func() error { return p.rpc(p.handles()[0], wire.OpFlushTail, flush) }},
		{"index segment", wire.IndexSegment{RegionID: uint16(p.cfg.RegionID), JobID: job.ID, DstLevel: 1, PrimarySeg: 9, Frame: seg.Data}.Encode(nil), func() error {
			p.OnIndexSegment(job, seg)
			return p.Err()
		}},
	} {
		ptx, prx, btx, brx := r.epP.TxBytes(), r.epP.RxBytes(), r.epB[0].TxBytes(), r.epB[0].RxBytes()
		w := writes.Load()
		if err := c.send(); err != nil {
			t.Fatal(err)
		}
		req := uint64(wire.SentSize(len(c.payload)))
		for _, m := range []struct {
			what      string
			got, want uint64
		}{
			{"primary Tx", r.epP.TxBytes() - ptx, req},
			{"backup Rx", r.epB[0].RxBytes() - brx, req},
			{"backup Tx", r.epB[0].TxBytes() - btx, wire.ReplyLine},
			{"primary Rx", r.epP.RxBytes() - prx, wire.ReplyLine},
			{"writes into the backup", uint64(writes.Load() - w), 1},
		} {
			if m.got != m.want {
				t.Errorf("%s: %s moved %d, want %d", c.what, m.what, m.got, m.want)
			}
		}
	}
	if len(p.Evictions()) != 0 {
		t.Fatalf("evictions = %+v", p.Evictions())
	}
	r.checkHealthy()
}

// TestDroppedShipIsRetried: the request that ships a segment vanishes on
// the wire during a Flush, and a put starts while the ship waits to
// retry it. The put's log write completes for the put alone: the ship
// is retried, not acknowledged by the put's completion, so the backup
// installs the level, nothing is evicted, the put returns without
// waiting out AckTimeout, and every key reads back from the promoted
// backup.
func TestDroppedShipIsRetried(t *testing.T) {
	const ackTimeout = 2 * time.Second
	failures := &metrics.FailureStats{}
	r := newRigCfg(t, SendIndex, 1, nil, func(pc *PrimaryConfig) {
		pc.Retry = RetryPolicy{AckTimeout: ackTimeout, MaxRetries: 2, Backoff: 50 * time.Millisecond}
		pc.Failures = failures
	}, nil)
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
	const n = 200 // under L0MaxKeys: the Flush's job is the first
	for i := 0; i < n; i++ {
		if err := r.db.Put(key(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	var dropped atomic.Bool
	raced := make(chan time.Duration, 1)
	r.epB[0].InjectFault(func(op rdma.FaultOp, _, to string, _ int, payload []byte) rdma.Fault {
		if op != rdma.FaultWrite || to != "backup0" || len(payload) <= 1024 || !dropped.CompareAndSwap(false, true) {
			return rdma.Fault{}
		}
		go func() {
			time.Sleep(20 * time.Millisecond)
			start := time.Now()
			if err := r.db.Put(key(n), []byte("raced")); err != nil {
				t.Error(err)
			}
			raced <- time.Since(start)
		}()
		return rdma.Fault{Action: rdma.FaultDrop}
	})
	if err := r.db.Flush(); err != nil {
		t.Fatal(err)
	}
	if !dropped.Load() {
		t.Fatal("the Flush shipped nothing; no write was dropped")
	}
	if d := <-raced; d >= ackTimeout/2 {
		t.Fatalf("the put beside the dropped ship took %v, AckTimeout is %v", d, ackTimeout)
	}
	if err := r.db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	r.epB[0].InjectFault(nil)
	r.checkHealthy()
	if evs := r.primary.Evictions(); len(evs) != 0 {
		t.Fatalf("evictions = %+v", evs)
	}
	if got := failures.Snapshot().Retries; got < 1 {
		t.Fatalf("%d retries, want the dropped ship's", got)
	}

	r.primary.Detach(r.backups[0])
	db2, err := r.backups[0].Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i <= n; i++ {
		want := fmt.Sprintf("v-%d", i)
		if i == n {
			want = "raced"
		}
		if v, found, err := db2.Get(key(i)); err != nil || !found || string(v) != want {
			t.Fatalf("promoted Get(%s) = %q, %v, %v; want %q", key(i), v, found, err, want)
		}
	}
}
