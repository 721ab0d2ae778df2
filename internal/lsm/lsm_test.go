package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tebis/internal/btree"
	"tebis/internal/kv"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

func testOptions(t *testing.T) (Options, *storage.MemDevice) {
	t.Helper()
	dev, err := storage.NewMemDevice(16<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	return Options{
		Device:       dev,
		NodeSize:     512,
		GrowthFactor: 4,
		L0MaxKeys:    256,
		MaxLevels:    6,
		Seed:         1,
	}, dev
}

func newTestDB(t *testing.T) (*DB, *storage.MemDevice) {
	t.Helper()
	opt, dev := testOptions(t)
	db, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, dev
}

func TestPutGetSmall(t *testing.T) {
	db, _ := newTestDB(t)
	if err := db.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, found, err := db.Get([]byte("hello"))
	if err != nil || !found || string(v) != "world" {
		t.Fatalf("Get = %q, %v, %v", v, found, err)
	}
	if _, found, _ := db.Get([]byte("absent")); found {
		t.Fatal("absent key found")
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	db, _ := newTestDB(t)
	for i := 0; i < 10; i++ {
		if err := db.Put([]byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, found, err := db.Get([]byte("k"))
	if err != nil || !found || string(v) != "v9" {
		t.Fatalf("Get = %q, %v, %v", v, found, err)
	}
}

func TestDeleteHidesKey(t *testing.T) {
	db, _ := newTestDB(t)
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := db.Get([]byte("k")); found {
		t.Fatal("deleted key still found")
	}
}

func TestCompactionPreservesAllKeys(t *testing.T) {
	db, _ := newTestDB(t)
	const n = 3000 // many L0 flushes at L0MaxKeys=256
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user%08d", i)
		v := fmt.Sprintf("value-%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// After a flush L0 is empty: everything must be served from levels.
	if db.L0Len() != 0 {
		t.Fatalf("L0Len = %d after Flush", db.L0Len())
	}
	for i := 0; i < n; i += 13 {
		k := fmt.Sprintf("user%08d", i)
		v, found, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if !found || string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("Get(%s) = %q, %v", k, v, found)
		}
	}
	// Multiple levels should be populated for n >> L0MaxKeys.
	states := db.Levels()
	populated := 0
	for _, st := range states {
		if st.NumKeys > 0 {
			populated++
		}
	}
	if populated == 0 {
		t.Fatal("no on-device level populated")
	}
}

func TestCompactionDropsShadowedVersions(t *testing.T) {
	db, _ := newTestDB(t)
	// Write the same small key set many times; levels must converge to
	// one version per key.
	for round := 0; round < 30; round++ {
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("key%03d", i)
			if err := db.Put([]byte(k), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range db.Levels() {
		total += st.NumKeys
	}
	if total > 200 { // 100 distinct keys; duplicates across levels are bounded
		t.Fatalf("levels hold %d entries for 100 distinct keys", total)
	}
	v, found, _ := db.Get([]byte("key042"))
	if !found || string(v) != "r29" {
		t.Fatalf("Get = %q, %v", v, found)
	}
}

func TestTombstonesDroppedAtLastLevel(t *testing.T) {
	opt, _ := testOptions(t)
	opt.MaxLevels = 2 // L1 is the last level: tombstones must vanish there
	db, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if err := db.Delete([]byte(fmt.Sprintf("key%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range db.Levels() {
		total += st.NumKeys
	}
	if total != 0 {
		t.Fatalf("last level holds %d entries, want 0 after deleting everything", total)
	}
	if _, found, _ := db.Get([]byte("key0000")); found {
		t.Fatal("deleted key resurfaced")
	}
}

func TestScanMergedView(t *testing.T) {
	db, _ := newTestDB(t)
	const n = 1200
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("user%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite a few and delete a few; do NOT flush so L0+levels mix.
	for i := 0; i < n; i += 100 {
		if err := db.Put([]byte(fmt.Sprintf("user%06d", i)), []byte("updated")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 50; i < n; i += 100 {
		if err := db.Delete([]byte(fmt.Sprintf("user%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	seen := map[string]string{}
	err := db.Scan([]byte("user"), func(p kv.Pair) bool {
		keys = append(keys, string(p.Key))
		seen[string(p.Key)] = string(p.Value)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := n - n/100 // deleted every 100th starting at 50
	if len(keys) != want {
		t.Fatalf("scan returned %d keys, want %d", len(keys), want)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order at %d: %q >= %q", i, keys[i-1], keys[i])
		}
	}
	if seen["user000100"] != "updated" {
		t.Fatalf("scan saw stale version %q", seen["user000100"])
	}
	if _, ok := seen["user000050"]; ok {
		t.Fatal("scan saw deleted key")
	}
}

func TestScanN(t *testing.T) {
	db, _ := newTestDB(t)
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("user%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := db.ScanN([]byte("user000010"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 || string(pairs[0].Key) != "user000010" || string(pairs[4].Key) != "user000014" {
		t.Fatalf("ScanN = %d pairs, first %q", len(pairs), pairs[0].Key)
	}
}

func TestGetAfterMultipleCompactionRounds(t *testing.T) {
	db, _ := newTestDB(t)
	rnd := rand.New(rand.NewSource(17))
	ref := map[string]string{}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key%05d", rnd.Intn(1500))
		v := fmt.Sprintf("val%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
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

func TestConcurrentPutGet(t *testing.T) {
	db, _ := newTestDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 800; i++ {
				k := fmt.Sprintf("w%d-key%05d", w, i)
				if err := db.Put([]byte(k), []byte("v")); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if _, _, err := db.Get([]byte(fmt.Sprintf("w0-key%05d", i))); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		k := fmt.Sprintf("w%d-key%05d", w, 799)
		if _, found, _ := db.Get([]byte(k)); !found {
			t.Fatalf("key %s lost", k)
		}
	}
}

func TestClosedDBRejectsOps(t *testing.T) {
	db, _ := newTestDB(t)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("Put after close = %v", err)
	}
	if _, _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get after close = %v", err)
	}
}

// recordingListener captures all engine events for protocol tests.
type recordingListener struct {
	mu       sync.Mutex
	appends  int
	seals    int
	starts   [][2]int
	segments []btree.EmittedSegment
	dones    []CompactionResult
	gcSeals  int
	releases [][]storage.SegmentID
}

func (r *recordingListener) OnAppend(res vlog.AppendResult, _ *obs.ReqTrace) {
	r.mu.Lock()
	r.appends++
	if res.Sealed != nil {
		r.seals++
	}
	r.mu.Unlock()
}

func (r *recordingListener) OnCompactionStart(job CompactionJob) {
	r.mu.Lock()
	r.starts = append(r.starts, [2]int{job.SrcLevel, job.DstLevel})
	r.mu.Unlock()
}

func (r *recordingListener) OnIndexSegment(job CompactionJob, seg btree.EmittedSegment) {
	r.mu.Lock()
	r.segments = append(r.segments, seg)
	r.mu.Unlock()
}

func (r *recordingListener) OnCompactionDone(res CompactionResult) {
	r.mu.Lock()
	r.dones = append(r.dones, res)
	r.mu.Unlock()
}

func (r *recordingListener) OnSeal(*vlog.Sealed) {
	r.mu.Lock()
	r.gcSeals++
	r.mu.Unlock()
}

func (r *recordingListener) OnRelease(segs []storage.SegmentID) {
	r.mu.Lock()
	r.releases = append(r.releases, segs)
	r.mu.Unlock()
}

func TestListenerEventOrdering(t *testing.T) {
	opt, _ := testOptions(t)
	rec := &recordingListener{}
	opt.Listener = rec
	db, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const n = 2000
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("user%08d", i)), bytes.Repeat([]byte("v"), 50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.appends != n {
		t.Fatalf("OnAppend fired %d times, want %d", rec.appends, n)
	}
	if rec.seals == 0 {
		t.Fatal("no tail seals observed")
	}
	if len(rec.starts) == 0 || len(rec.dones) == 0 {
		t.Fatalf("starts=%d dones=%d", len(rec.starts), len(rec.dones))
	}
	if len(rec.starts) != len(rec.dones) {
		t.Fatalf("starts=%d != dones=%d", len(rec.starts), len(rec.dones))
	}
	if len(rec.segments) == 0 {
		t.Fatal("no index segments shipped")
	}
	// Every done must report a consistent built tree.
	for _, d := range rec.dones {
		if d.DstLevel != d.SrcLevel+1 {
			t.Fatalf("done levels %d -> %d", d.SrcLevel, d.DstLevel)
		}
		if d.Built.NumKeys > 0 && d.Built.Root == storage.NilOffset {
			t.Fatal("non-empty build with nil root")
		}
	}
	// L0→L1 dones must carry a watermark (segment IDs are reused, so
	// offsets are not numerically ordered; replay order comes from the
	// log's segment list).
	l0Dones := 0
	for _, d := range rec.dones {
		if d.SrcLevel == 0 {
			l0Dones++
			if d.Watermark == storage.NilOffset {
				t.Fatal("L0 compaction done without watermark")
			}
		}
	}
	if l0Dones == 0 {
		t.Fatal("no L0 compactions observed")
	}
}

func TestCyclesChargedByComponent(t *testing.T) {
	opt, _ := testOptions(t)
	var cy metrics.Cycles
	opt.Cycles = &cy
	db, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("user%08d", i)), bytes.Repeat([]byte("v"), 30)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := db.Get([]byte(fmt.Sprintf("user%08d", i))); err != nil {
			t.Fatal(err)
		}
	}
	b := cy.Snapshot()
	if b[metrics.CompInsertL0] == 0 {
		t.Fatal("no InsertL0 cycles charged")
	}
	if b[metrics.CompCompaction] == 0 {
		t.Fatal("no compaction cycles charged")
	}
	if b[metrics.CompOther] == 0 {
		t.Fatal("no read-path cycles charged")
	}
	// This DB is a bare primary: replication components must be zero.
	if b[metrics.CompLogReplication] != 0 || b[metrics.CompSendIndex] != 0 || b[metrics.CompRewriteIndex] != 0 {
		t.Fatalf("replication cycles charged on bare engine: %v", b)
	}
}

func TestSegmentAccountingNoLeaks(t *testing.T) {
	db, dev := newTestDB(t)
	for i := 0; i < 4000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%05d", i%500)), bytes.Repeat([]byte("x"), 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Live segments = value log segments + level segments + log tail.
	want := uint64(len(db.Log().Segments())) + 1 // +1 tail
	for _, st := range db.Levels() {
		want += uint64(len(st.Segments))
	}
	if got := dev.Stats().SegmentsLive; got != want {
		t.Fatalf("live segments = %d, accounted = %d (leak or double-free)", got, want)
	}
}

func TestReplayLogRebuildsL0(t *testing.T) {
	db, _ := newTestDB(t)
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate promotion: build a fresh DB over the same log + levels
	// and replay from the watermark.
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	opt := db.opt
	opt.Listener = nil
	states := db.Levels()
	db2, err := NewFromState(opt, db.Log(), states, db.Watermark())
	if err != nil {
		t.Fatal(err)
	}
	n, err := db2.ReplayLog(db.Watermark())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 && db.L0Len() > 0 {
		t.Fatal("replay recovered nothing despite non-empty L0")
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key%04d", i)
		v, found, err := db2.Get([]byte(k))
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("promoted Get(%s) = %q, %v, %v", k, v, found, err)
		}
	}
}

func TestLargeValuesNearSegmentSize(t *testing.T) {
	db, _ := newTestDB(t)
	big := bytes.Repeat([]byte("B"), 10_000) // close to the 16 KiB segment
	if err := db.Put([]byte("bigkey"), big); err != nil {
		t.Fatal(err)
	}
	v, found, err := db.Get([]byte("bigkey"))
	if err != nil || !found || !bytes.Equal(v, big) {
		t.Fatalf("big value round trip failed: %v found=%v len=%d", err, found, len(v))
	}
}

// TestWarmGetAllocCeiling pins the heap cost of a point lookup whose
// index nodes are cached: two value-log reads — the full key that
// settles the prefix tie, then the record, whose buffer is returned as
// is — each a header and a buffer (the header escapes through the
// Device interface), and nothing per level or per node. A Get that
// starts copying the value or decoding nodes again lands above the
// ceiling.
func TestWarmGetAllocCeiling(t *testing.T) {
	db, _ := newTestDB(t)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%05d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if db.L0Len() != 0 {
		t.Fatalf("L0 holds %d keys after Flush; the lookup would not reach the levels", db.L0Len())
	}
	key := []byte(fmt.Sprintf("key%05d", n/2))
	get := func() {
		if v, found, err := db.Get(key); err != nil || !found || string(v) != "value" {
			t.Fatalf("Get = %q, %v, %v", v, found, err)
		}
	}
	get() // fill the node cache
	const ceiling = 4
	if got := testing.AllocsPerRun(200, get); got > ceiling {
		t.Fatalf("a warm Get allocates %v times, ceiling %d", got, ceiling)
	}
}
