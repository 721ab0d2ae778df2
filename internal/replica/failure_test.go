package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tebis/internal/metrics"
	"tebis/internal/rdma"
	"tebis/internal/storage"
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

	// Arm the fault on backup0's NIC: the first IndexSegment command is
	// delivered, then the node goes silent — every later operation
	// touching it (acks out, retries and writes in) drops on the wire.
	var armed atomic.Bool
	r.epB[0].InjectFault(func(op rdma.FaultOp, from, to string, seq int, payload []byte) rdma.Fault {
		if armed.Load() {
			return rdma.Fault{Action: rdma.FaultDrop}
		}
		if op == rdma.FaultSend && to == "backup0" {
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
	// The compactor must drain — a dead backup must not wedge a job's
	// ship goroutine (lsm.Listener contract).
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

// TestRPCRetryRecoversFromTransientDrop checks that the retry path,
// not just eviction, works: exactly one control message vanishes and
// the retried attempt (same RequestID, deduplicated at the backup)
// succeeds with no eviction.
func TestRPCRetryRecoversFromTransientDrop(t *testing.T) {
	failures := &metrics.FailureStats{}
	r := newRigCfg(t, SendIndex, 1, nil, func(pc *PrimaryConfig) {
		pc.Retry = RetryPolicy{AckTimeout: 40 * time.Millisecond, MaxRetries: 3, Backoff: time.Millisecond}
		pc.Failures = failures
	}, nil)

	// Drop exactly one FlushTail command on its way in.
	var dropped atomic.Bool
	r.epB[0].InjectFault(func(op rdma.FaultOp, from, to string, seq int, payload []byte) rdma.Fault {
		if op != rdma.FaultSend || to != "backup0" || dropped.Load() {
			return rdma.Fault{}
		}
		if h, err := wire.DecodeHeader(payload); err == nil && h.Opcode == wire.OpFlushTail {
			dropped.Store(true)
			return rdma.Fault{Action: rdma.FaultDrop}
		}
		return rdma.Fault{}
	})

	r.load(2000, 30)
	if !dropped.Load() {
		t.Fatal("no FlushTail was ever sent")
	}
	if evs := r.primary.Evictions(); len(evs) != 0 {
		t.Fatalf("transient drop caused eviction: %+v", evs)
	}
	if failures.Snapshot().Retries == 0 {
		t.Fatal("no retry recorded for the dropped command")
	}
	// The backup converged despite the drop: its levels match.
	bLevels := r.backups[0].LevelStates(lsmOpts().MaxLevels)
	for i, st := range r.db.Levels() {
		if st.NumKeys != bLevels[i].NumKeys {
			t.Fatalf("level %d: primary %d keys, backup %d", i+1, st.NumKeys, bLevels[i].NumKeys)
		}
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
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(val)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, key...)
	buf = append(buf, val...)
	return buf
}

// TestPromoteSmallLogBufferPersistsFullSegment is the satellite
// regression for the promote persistence bug: with a log buffer smaller
// than a segment, Promote must still persist the adopted tail as a
// full, zero-padded segment image so device reads through level
// pointers resolve.
func TestPromoteSmallLogBufferPersistsFullSegment(t *testing.T) {
	const segSize = 16 << 10
	const bufSize = 4 << 10
	dev, err := storage.NewMemDevice(segSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	b, err := NewBackup(BackupConfig{
		RegionID:      1,
		ServerName:    "small",
		Mode:          SendIndex,
		Device:        dev,
		Endpoint:      rdma.NewEndpoint("small"),
		Cost:          metrics.DefaultCostModel(),
		LSM:           lsmOpts(),
		LogBufferSize: bufSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.logBuf.Size(); got != bufSize {
		t.Fatalf("log buffer size = %d, want %d", got, bufSize)
	}

	// Mirror two records into the (small) replicated tail buffer, the
	// way a primary's one-sided writes would.
	var img []byte
	img = encodeLogRecord(img, "alpha", "one")
	img = encodeLogRecord(img, "beta", "two")
	qp := rdma.Connect(rdma.NewEndpoint("primary"), b.cfg.Endpoint, 1)
	if err := qp.Write(b.LogBufferRKey(), 0, img, 0); err != nil {
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

// TestCrashLeavesNoGoroutines asserts that Crash tears down every
// goroutine the backup owns: the control loop and, in Build-Index mode,
// the index worker draining idxQueue. A leaked worker would pin the
// backup's engine (and its memory) for the life of the process — the
// exact bug where Crash closed the QPs but never closed idxQueue.
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
			// Compaction-pipeline goroutines are per-job and already
			// drained by WaitIdle; only leaked backup goroutines can keep
			// the count above the baseline.
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
