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
// regression test: a writer stalled on a full frozen-L0 queue must
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
		Device:            dev,
		NodeSize:          512,
		GrowthFactor:      4,
		L0MaxKeys:         128,
		MaxLevels:         6,
		Seed:              1,
		CompactionWorkers: 1,
		L0Buffers:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	// The writer freezes once (starting the doomed compaction, which
	// blocks on the gate inside its index write), then fills L0 again
	// and stalls on the full frozen queue.
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

	waitFor(t, "writer to stall on the frozen-L0 queue", func() bool {
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

// runStallWorkload drives the same write pattern against an engine with
// the given scheduler knobs while an L1→L2 compaction is pinned in
// flight, and returns the stall accounting. With one worker and one L0
// buffer the writer is guaranteed to stall (nothing can drain L0 while
// the worker is pinned); with two workers and a deep frozen queue it is
// guaranteed not to (L0 jobs overlap the pinned compaction and the
// queue absorbs every freeze).
func runStallWorkload(t *testing.T, workers, buffers int, expectStall bool) (s struct {
	stalls    uint64
	stallTime time.Duration
}) {
	t.Helper()
	dev, err := storage.NewMemDevice(16<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	gate := &gateListener{gate: make(chan struct{})}
	db, err := New(Options{
		Device:            dev,
		NodeSize:          512,
		GrowthFactor:      4,
		L0MaxKeys:         128,
		MaxLevels:         6,
		Seed:              1,
		Listener:          gate,
		CompactionWorkers: workers,
		L0Buffers:         buffers,
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
	// pinned.
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

	if expectStall {
		waitFor(t, "the writer to stall", func() bool {
			return db.CompactionStats().WriterStalls >= 1
		})
		close(gate.gate)
	} else {
		select {
		case err := <-writerDone:
			if err != nil {
				t.Fatal(err)
			}
			writerDone <- nil // re-arm for the drain below
		case <-time.After(10 * time.Second):
			t.Fatalf("writer blocked with %d workers / %d buffers; stalls=%d",
				workers, buffers, db.CompactionStats().WriterStalls)
		}
		close(gate.gate)
	}
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// The knobs must not change what is stored.
	for _, k := range []string{"a00000000", "a00000639", "b00000000", "b00000255"} {
		if _, found, err := db.Get([]byte(k)); err != nil || !found {
			t.Fatalf("Get(%s) = %v, %v after drain", k, found, err)
		}
	}

	snap := db.CompactionStats()
	s.stalls = snap.WriterStalls
	s.stallTime = snap.WriterStallTime
	return s
}

// TestDoubleBufferedL0AvoidsWriterStall is the writer-stall regression
// test: under an identical workload with a pinned long compaction, the
// serial configuration must stall the writer and the pipelined,
// double-buffered one must not.
func TestDoubleBufferedL0AvoidsWriterStall(t *testing.T) {
	serial := runStallWorkload(t, 1, 1, true)
	pipelined := runStallWorkload(t, 2, 8, false)

	if serial.stalls == 0 {
		t.Fatal("serial configuration recorded no writer stalls")
	}
	if serial.stallTime <= 0 {
		t.Fatalf("serial configuration recorded no stall time (stalls=%d)", serial.stalls)
	}
	if pipelined.stalls != 0 {
		t.Fatalf("pipelined configuration stalled %d times, want 0", pipelined.stalls)
	}
	if pipelined.stallTime >= serial.stallTime {
		t.Fatalf("pipelined stall time %v >= serial %v", pipelined.stallTime, serial.stallTime)
	}
}

// TestSegmentsShipToListenerBeforeBuildCompletes asserts the Send-Index
// streaming property the pipeline exists for: with merges big enough to
// seal several index segments, at least one segment must reach the
// shipping stage while its build stage is still running. The segs
// channel holds two segments, so any job emitting four or more makes
// this deterministic.
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

// jobRecorder checks the per-job event protocol under concurrent
// compactions: every job's segments arrive between its start and its
// done, and job IDs are never reused.
type jobRecorder struct {
	mu      sync.Mutex
	started map[uint64]CompactionJob
	segs    map[uint64]int
	done    map[uint64]bool
	errs    []string
}

func newJobRecorder() *jobRecorder {
	return &jobRecorder{
		started: make(map[uint64]CompactionJob),
		segs:    make(map[uint64]int),
		done:    make(map[uint64]bool),
	}
}

func (r *jobRecorder) errf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *jobRecorder) OnAppend(vlog.AppendResult, *obs.ReqTrace) {}

func (r *jobRecorder) OnCompactionStart(job CompactionJob) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.started[job.ID]; ok {
		r.errf("job %d started twice", job.ID)
	}
	r.started[job.ID] = job
}

func (r *jobRecorder) OnIndexSegment(job CompactionJob, seg btree.EmittedSegment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.started[job.ID]; !ok {
		r.errf("segment for job %d before its start", job.ID)
	}
	if r.done[job.ID] {
		r.errf("segment for job %d after its done", job.ID)
	}
	r.segs[job.ID]++
}

func (r *jobRecorder) OnCompactionDone(res CompactionResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start, ok := r.started[res.JobID]
	if !ok {
		r.errf("done for job %d without start", res.JobID)
	} else if start.SrcLevel != res.SrcLevel || start.DstLevel != res.DstLevel {
		r.errf("job %d levels changed: start %d→%d, done %d→%d",
			res.JobID, start.SrcLevel, start.DstLevel, res.SrcLevel, res.DstLevel)
	}
	if r.done[res.JobID] {
		r.errf("job %d done twice", res.JobID)
	}
	r.done[res.JobID] = true
}

func (r *jobRecorder) OnSeal(*vlog.Sealed)           {}
func (r *jobRecorder) OnRelease([]storage.SegmentID) {}

// TestConcurrentWorkersPreserveData runs the scheduler with two workers
// and a deep frozen queue under a heavy overwrite workload and verifies
// both the stored data and the per-job event protocol.
func TestConcurrentWorkersPreserveData(t *testing.T) {
	dev, err := storage.NewMemDevice(16<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	rec := newJobRecorder()
	db, err := New(Options{
		Device:            dev,
		NodeSize:          512,
		GrowthFactor:      4,
		L0MaxKeys:         128,
		MaxLevels:         6,
		Seed:              1,
		Listener:          rec,
		CompactionWorkers: 2,
		L0Buffers:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	rnd := rand.New(rand.NewSource(42))
	ref := make(map[string]string, 2500)
	for i := 0; i < 8000; i++ {
		k := fmt.Sprintf("key%05d", rnd.Intn(2500))
		v := fmt.Sprintf("val%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	errs := append([]string(nil), rec.errs...)
	nStarted, nDone := len(rec.started), len(rec.done)
	rec.mu.Unlock()
	for _, e := range errs {
		t.Error(e)
	}
	if nStarted == 0 || nStarted != nDone {
		t.Fatalf("started=%d done=%d", nStarted, nDone)
	}
	if got := db.CompactionStats().Jobs; got != uint64(nDone) {
		t.Fatalf("stats counted %d jobs, listener saw %d dones", got, nDone)
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
