package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tebis/internal/btree"
	"tebis/internal/obs"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// errInjected is the fault the failing device reports once released.
var errInjected = errors.New("injected device write failure")

// failingDevice wraps a Device and, once armed, blocks builder segment
// writes on a gate and then fails them. Builder flushes write the used
// prefix of a segment (a multiple of the node size, smaller than a full
// segment for the small merges in these tests); value-log seals always
// write exactly one full segment, so they pass through untouched.
type failingDevice struct {
	storage.Device
	nodeSize int
	segSize  int64
	armed    atomic.Bool
	gate     chan struct{}
}

func (d *failingDevice) WriteAt(off storage.Offset, p []byte) error {
	if d.armed.Load() && len(p) > 0 && int64(len(p)) < d.segSize && len(p)%d.nodeSize == 0 {
		<-d.gate
		return errInjected
	}
	return d.Device.WriteAt(off, p)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeviceFailureUnblocksStalledWriter is the dropped-wakeup
// regression test: a writer stalled behind the frozen L0 must
// observe a compaction failure and return its error instead of hanging
// forever. The device blocks the in-flight compaction's index write
// until the writer is provably stalled, then fails it.
func TestDeviceFailureUnblocksStalledWriter(t *testing.T) {
	mem, err := storage.NewMemDevice(16<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close() })
	dev := &failingDevice{
		Device:   mem,
		nodeSize: 512,
		segSize:  mem.Geometry().SegmentSize(),
		gate:     make(chan struct{}),
	}
	dev.armed.Store(true)

	db, err := New(Options{
		Device:       dev,
		NodeSize:     512,
		GrowthFactor: 4,
		L0MaxKeys:    128,
		MaxLevels:    6,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	// The writer freezes once (starting the doomed compaction, which
	// blocks on the gate inside its index write), then fills L0 again
	// and stalls behind the frozen table.
	writerErr := make(chan error, 1)
	go func() {
		for i := 0; i < 1000; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key%08d", i)), []byte("v")); err != nil {
				writerErr <- err
				return
			}
		}
		writerErr <- nil
	}()

	waitFor(t, "writer to stall behind the frozen L0", func() bool {
		return db.CompactionStats().WriterStalls >= 1
	})

	// Release the gate: the compaction fails and must wake the writer.
	close(dev.gate)

	select {
	case err := <-writerErr:
		if !errors.Is(err, errInjected) {
			t.Fatalf("stalled Put returned %v, want the injected failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled Put never unblocked after the compaction failed")
	}

	// The engine must stay failed, not wedged: later calls return the
	// error immediately.
	if err := db.Put([]byte("after"), []byte("v")); !errors.Is(err, errInjected) {
		t.Fatalf("Put after failure = %v, want the injected failure", err)
	}
	if err := db.WaitIdle(); !errors.Is(err, errInjected) {
		t.Fatalf("WaitIdle after failure = %v, want the injected failure", err)
	}
}

// gateListener blocks every level-to-level compaction (src >= 1) on a
// gate, pinning the job in flight so the tests can observe scheduler
// behavior while a long compaction runs.
type gateListener struct {
	gate    chan struct{}
	started atomic.Bool // a gated job reached OnCompactionStart
}

func (g *gateListener) OnAppend(vlog.AppendResult, *obs.ReqTrace) {}
func (g *gateListener) OnCompactionStart(job CompactionJob) {
	if job.SrcLevel >= 1 {
		g.started.Store(true)
		<-g.gate
	}
}
func (g *gateListener) OnIndexSegment(CompactionJob, btree.EmittedSegment) {}
func (g *gateListener) OnCompactionDone(CompactionResult)                  {}
func (g *gateListener) OnSeal(*vlog.Sealed)                                {}
func (g *gateListener) OnRelease([]storage.SegmentID)                      {}

// TestPinnedJobStallsWriter is the writer-stall regression test: while
// an L1→L2 compaction is pinned in flight, nothing can drain L0, so a
// writer that fills it twice stalls behind the frozen table, and the
// stall is counted with its time. Once the job is released the writes
// land and nothing is lost.
func TestPinnedJobStallsWriter(t *testing.T) {
	dev, err := storage.NewMemDevice(16<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	gate := &gateListener{gate: make(chan struct{})}
	db, err := New(Options{
		Device:       dev,
		NodeSize:     512,
		GrowthFactor: 4,
		L0MaxKeys:    128,
		MaxLevels:    6,
		Seed:         1,
		Listener:     gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	// Phase 1: overfill L1 (capacity 4*128 = 512) with exactly five L0
	// tables so the scheduler plans an L1→L2 job, which pins itself on
	// the gate. Wait until all five L0 jobs retired and the gated job
	// is in flight.
	for i := 0; i < 640; i++ {
		if err := db.Put([]byte(fmt.Sprintf("a%08d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the gated L1→L2 job to start", func() bool {
		return db.CompactionStats().Jobs >= 5 && gate.started.Load()
	})

	// Phase 2: write two more L0 tables' worth while the compaction is
	// pinned: the first freezes, the second stalls behind it.
	writerDone := make(chan error, 1)
	go func() {
		for i := 0; i < 256; i++ {
			if err := db.Put([]byte(fmt.Sprintf("b%08d", i)), []byte("v")); err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()
	waitFor(t, "the writer to stall", func() bool {
		return db.CompactionStats().WriterStalls >= 1
	})
	close(gate.gate)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, k := range []string{"a00000000", "a00000639", "b00000000", "b00000255"} {
		if _, found, err := db.Get([]byte(k)); err != nil || !found {
			t.Fatalf("Get(%s) = %v, %v after drain", k, found, err)
		}
	}
	if snap := db.CompactionStats(); snap.WriterStallTime <= 0 {
		t.Fatalf("no stall time recorded (stalls=%d)", snap.WriterStalls)
	}
}

// TestSegmentsShipToListenerBeforeBuildCompletes asserts the Send-Index
// streaming property the ship goroutine exists for: with merges big
// enough to seal several index segments, at least one segment must reach
// the ship goroutine while its build is still running. The segs channel
// holds two segments, so any job emitting four or more makes this
// deterministic.
func TestSegmentsShipToListenerBeforeBuildCompletes(t *testing.T) {
	opt, _ := testOptions(t)
	rec := &recordingListener{}
	opt.Listener = rec
	db, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// 6000 keys at L0MaxKeys=256 and growth factor 4 force an L2→L3
	// merge of >4096 keys — well over four sealed segments.
	const n = 6000
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("user%08d", i)), []byte("valuevaluevalue")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	snap := db.CompactionStats()
	if snap.Jobs == 0 || snap.SegmentsShipped == 0 {
		t.Fatalf("no pipeline activity: %+v", snap)
	}
	if snap.SegmentsShippedEarly == 0 {
		t.Fatalf("no segment shipped before its build completed (%d shipped)", snap.SegmentsShipped)
	}
	if snap.OverlapFraction() <= 0 {
		t.Fatalf("overlap fraction = %v, want > 0", snap.OverlapFraction())
	}
	if snap.MergeTime <= 0 || snap.BuildTime <= 0 {
		t.Fatalf("missing stage timings: %+v", snap)
	}
	for i := 0; i < n; i += 997 {
		if _, found, err := db.Get([]byte(fmt.Sprintf("user%08d", i))); err != nil || !found {
			t.Fatalf("Get(user%08d) = %v, %v", i, found, err)
		}
	}
}

// jobRecorder checks the per-job event protocol of the one compactor:
// a job's segments arrive between its start and its done, job IDs rise
// and are never reused, and a job's done comes before the next job's
// start — the events of two jobs never interleave.
type jobRecorder struct {
	mu     sync.Mutex
	open   *CompactionJob // started, not yet done
	last   uint64         // ID of the last job started
	starts int
	dones  int
	segs   int
	errs   []string
}

func (r *jobRecorder) errf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// idle reports whether no job has started without finishing.
func (r *jobRecorder) idle() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.open == nil
}

func (r *jobRecorder) OnAppend(vlog.AppendResult, *obs.ReqTrace) {}

func (r *jobRecorder) OnCompactionStart(job CompactionJob) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.open != nil {
		r.errf("job %d started while job %d was in flight", job.ID, r.open.ID)
	}
	if r.starts > 0 && job.ID <= r.last {
		r.errf("job %d started after job %d", job.ID, r.last)
	}
	r.open, r.last = &job, job.ID
	r.starts++
}

func (r *jobRecorder) OnIndexSegment(job CompactionJob, seg btree.EmittedSegment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.open == nil || r.open.ID != job.ID {
		r.errf("segment for job %d outside its start and done", job.ID)
	}
	r.segs++
}

func (r *jobRecorder) OnCompactionDone(res CompactionResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.open == nil || r.open.ID != res.JobID:
		r.errf("done for job %d, which is not the job in flight", res.JobID)
	case r.open.SrcLevel != res.SrcLevel || r.open.DstLevel != res.DstLevel:
		r.errf("job %d levels changed: start %d→%d, done %d→%d",
			res.JobID, r.open.SrcLevel, r.open.DstLevel, res.SrcLevel, res.DstLevel)
	}
	r.open = nil
	r.dones++
}

func (r *jobRecorder) OnSeal(*vlog.Sealed)           {}
func (r *jobRecorder) OnRelease([]storage.SegmentID) {}

// TestOneCompactorPreservesDataAndJobOrder runs the default engine
// under a heavy overwrite workload through its three ways to compact —
// background jobs, behind which the writer stalls, one CompactAll, and
// writes at one AtJobBoundary — and verifies the stored data and that
// no job's events interleave with another's.
func TestOneCompactorPreservesDataAndJobOrder(t *testing.T) {
	dev, err := storage.NewMemDevice(16<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	rec := &jobRecorder{}
	db, err := New(Options{
		Device:       dev,
		NodeSize:     512,
		GrowthFactor: 4,
		L0MaxKeys:    128,
		MaxLevels:    6,
		Seed:         1,
		Listener:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	rnd := rand.New(rand.NewSource(42))
	ref := make(map[string]string, 2500)
	put := func(i int) {
		t.Helper()
		k := fmt.Sprintf("key%05d", rnd.Intn(2500))
		v := fmt.Sprintf("val%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	for i := 0; i < 8000; i++ {
		put(i)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for i := 8000; i < 12000; i++ {
		put(i)
	}
	// At a job boundary no job is in flight or pending, and one more
	// table may freeze without a job draining it.
	err = db.AtJobBoundary(func() error {
		if frozen, inflight := db.QueueDepth(); frozen != 0 || inflight != 0 || !rec.idle() {
			t.Fatalf("at a job boundary: %d frozen, %d in flight, listener idle %v", frozen, inflight, rec.idle())
		}
		// Fill L0 once, and a few keys past it: a second freeze would
		// stall the writer behind a table no job may drain.
		i := 12000
		for frozen := 0; frozen == 0; frozen, _ = db.QueueDepth() {
			put(i)
			i++
		}
		for end := i + 10; i < end; i++ {
			put(i)
		}
		if frozen, inflight := db.QueueDepth(); frozen != 1 || inflight != 0 {
			t.Fatalf("held: %d frozen, %d in flight; want 1, 0", frozen, inflight)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	errs := append([]string(nil), rec.errs...)
	starts, dones, segs := rec.starts, rec.dones, rec.segs
	rec.mu.Unlock()
	for _, e := range errs {
		t.Error(e)
	}
	if starts == 0 || starts != dones || segs == 0 {
		t.Fatalf("starts=%d dones=%d segments=%d", starts, dones, segs)
	}
	snap := db.CompactionStats()
	if snap.Jobs != uint64(dones) {
		t.Fatalf("stats counted %d jobs, listener saw %d dones", snap.Jobs, dones)
	}
	if snap.WriterStalls == 0 {
		t.Fatal("the writer never stalled behind the compactor")
	}

	for k, v := range ref {
		got, found, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if !found || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, found, v)
		}
	}
}
