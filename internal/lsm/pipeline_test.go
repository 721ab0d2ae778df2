package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tebis/internal/btree"
	"tebis/internal/metrics"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// pipeKey is the i-th key of a population whose keys tie on their leaf
// prefixes: six short keys that differ only in trailing zero bytes, then
// three runs that share a twelve-byte prefix each. Unlike tieKey, every
// i names a different key.
func pipeKey(i int) []byte {
	if i%16 == 0 && i/16 < 6 {
		return []byte("ab" + strings.Repeat("\x00", i/16))
	}
	return []byte(fmt.Sprintf("sameprefix%02d-%04d", i%3, i))
}

// failNthWrite is a device whose nth WriteAt after arming, and every one
// after it, fails with errInjected.
type failNthWrite struct {
	storage.Device
	failAt int64 // 0: disarmed
	writes atomic.Int64
}

func (d *failNthWrite) WriteAt(off storage.Offset, p []byte) error {
	if d.failAt > 0 && d.writes.Add(1) >= d.failAt {
		return errInjected
	}
	return d.Device.WriteAt(off, p)
}

// pipelineDB opens an engine whose one on-device level, L1, is also its
// last, so a job into it drops tombstones. L1 holds the even keys below
// n; the active L0 holds the odd ones and every fourth key, every fifth
// of them deleted. A job merging that L0 into L1 therefore emits exactly
// n entries: same-key discards, tombstones that die and prefix ties
// included. The engine never compacts on its own, and two engines opened
// with the same n are the same, down to every device segment ID.
func pipelineDB(t *testing.T, n int) (*DB, *failNthWrite) {
	t.Helper()
	mem, err := storage.NewMemDevice(16<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close() })
	dev := &failNthWrite{Device: mem}
	db, err := New(Options{
		Device:       dev,
		NodeSize:     512,
		GrowthFactor: 4,
		L0MaxKeys:    1 << 20,
		MaxLevels:    2,
		Seed:         1,
		Cycles:       &metrics.Cycles{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < n; i += 2 {
		if err := db.Put(pipeKey(i), []byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 && i%4 != 0 {
			continue
		}
		var err error
		if i%5 == 0 {
			err = db.Delete(pipeKey(i))
		} else {
			err = db.Put(pipeKey(i), []byte(fmt.Sprintf("new-%d", i)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return db, dev
}

// l0Job returns the job pipelineDB sets up and its two cursors.
func l0Job(t testing.TB, db *DB) (CompactionJob, cursor, cursor) {
	t.Helper()
	db.mu.RLock()
	mt := db.l0
	db.mu.RUnlock()
	dst, _, err := db.levelCursor(1)
	if err != nil {
		t.Fatal(err)
	}
	return CompactionJob{ID: 1 << 20, SrcLevel: 0, DstLevel: 1, Filter: true}, &memCursor{it: mt.Iter()}, dst
}

// referenceRun is what the pipeline computes, without a listener or
// stage accounting: mergeStream straight into a btree.Builder, with the
// pipeline's tombstone rule and charges. at[i] is how many entries the
// merge had emitted when the i-th segment was emitted.
type referenceRun struct {
	built  btree.Built
	segs   []btree.EmittedSegment
	at     []int
	merged int
}

func runReference(db *DB, ref CompactionJob, src, dst cursor) (referenceRun, error) {
	var r referenceRun
	b, err := btree.NewBuilder(db.dev, db.opt.NodeSize, func(es btree.EmittedSegment) error {
		db.charge(metrics.CompCompaction, db.cost.WriteIO(len(es.Data)))
		r.segs = append(r.segs, es)
		r.at = append(r.at, r.merged)
		return nil
	})
	if err != nil {
		return r, err
	}
	if ref.Filter {
		b.SetFilterCollector(new(btree.FilterCollector))
	}
	keys := &keyReader{db: db}
	dropTombstones := ref.DstLevel == len(db.levels)-1
	deadHdr := make([]byte, vlog.HeaderSize)
	err = db.mergeStream(src, dst, func(e mergedEntry) error {
		r.merged++
		if e.Tombstone && dropTombstones {
			db.recordDead(e.ValueOff, deadHdr)
			return nil
		}
		return b.AddEntry(e.LeafEntry, e.key, keys.read)
	})
	if err != nil {
		return r, err
	}
	if r.built, err = b.Finish(); err == nil && ref.Filter {
		db.charge(metrics.CompCompaction, uint64(r.built.NumKeys)*db.cost.FilterPerKey)
	}
	return r, err
}

// TestPipelineMatchesSingleGoroutineReference: handing each segment to
// the listener as the builder seals it, and timing the stages apart,
// changes what the job reports, not what it produces. At job sizes from
// empty to a few segments, one engine runs the job through the pipeline
// and its twin through the reference, and the two must emit the same
// segments, byte for byte, build the same tree, charge the same
// compaction cycles and leave the same dead-bytes ledger.
func TestPipelineMatchesSingleGoroutineReference(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 769} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			db, _ := pipelineDB(t, n)
			twin, _ := pipelineDB(t, n)
			col := &recordingListener{}
			db.SetListener(col)

			ref, src, dst := l0Job(t, db)
			built, err := db.pipeline(ref, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			_, tsrc, tdst := l0Job(t, twin)
			want, err := runReference(twin, ref, tsrc, tdst)
			if err != nil {
				t.Fatal(err)
			}

			if want.merged != n {
				t.Fatalf("the job merged %d entries, want %d", want.merged, n)
			}
			live := 0
			for i := 0; i < n; i++ {
				if (i%2 != 0 || i%4 == 0) && i%5 == 0 {
					continue // deleted, and the tombstone dies at the last level
				}
				live++
			}
			if want.built.NumKeys != live {
				t.Fatalf("reference built %d keys, want %d", want.built.NumKeys, live)
			}
			if !reflect.DeepEqual(built, want.built) {
				t.Fatalf("pipeline built %+v, reference %+v", built, want.built)
			}
			if len(col.segments) != len(want.segs) {
				t.Fatalf("pipeline shipped %d segments, reference emitted %d", len(col.segments), len(want.segs))
			}
			for i, es := range col.segments {
				w := want.segs[i]
				if es.Seg != w.Seg || !bytes.Equal(es.Data, w.Data) {
					t.Fatalf("segment %d: pipeline %d/%d bytes, reference %d/%d bytes, or the bytes differ",
						i, es.Seg, len(es.Data), w.Seg, len(w.Data))
				}
			}
			if got, want := db.log.SpaceReport(), twin.log.SpaceReport(); !reflect.DeepEqual(got, want) {
				t.Fatalf("dead-bytes ledger: pipeline %+v, reference %+v", got, want)
			}
			if got, want := db.cycles.Snapshot(), twin.cycles.Snapshot(); got != want {
				t.Fatalf("cycles: pipeline %v, reference %v", got, want)
			}
		})
	}
}

// noNewGoroutines fails t if more goroutines run than before: a job
// starts none, so none can outlive it.
func noNewGoroutines(t *testing.T, before int) {
	t.Helper()
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines: %d before the job, %d once it returned", before, now)
	}
}

// TestPipelineBuildErrorMidJob: a segment write that fails in the middle
// of a job, with entries merged before it and after it, is the job's
// error, and the job returns with no goroutine left behind. Which write
// that is comes from the twin's reference run.
func TestPipelineBuildErrorMidJob(t *testing.T) {
	const n = 3000
	twin, _ := pipelineDB(t, n)
	ref, tsrc, tdst := l0Job(t, twin)
	want, err := runReference(twin, ref, tsrc, tdst)
	if err != nil {
		t.Fatal(err)
	}
	mid := slices.IndexFunc(want.at, func(at int) bool { return at > 0 && at < n })
	if mid < 0 {
		t.Fatalf("no segment was emitted mid-job (%v); the test lost its premise", want.at)
	}

	db, dev := pipelineDB(t, n)
	ref, src, dst := l0Job(t, db)
	before := runtime.NumGoroutine()
	dev.failAt = int64(mid + 1)
	_, err = db.pipeline(ref, src, dst)
	if !errors.Is(err, errInjected) {
		t.Fatalf("pipeline = %v, want the injected write failure", err)
	}
	noNewGoroutines(t, before)
}

// TestPipelineMergeErrorMidJob: a corrupt source leaf that the merge
// reaches in the middle of a job fails the job with the merge's own
// error, verbatim, and the job returns with no goroutine left behind.
func TestPipelineMergeErrorMidJob(t *testing.T) {
	const n, leaf = 3000, 4
	// corrupt overwrites the kind byte of L1's leaf-th leaf.
	corrupt := func(db *DB) {
		t.Helper()
		seg := db.Levels()[0].Segments[0] // the level's first segment, leaves first
		if err := db.dev.WriteAt(db.geo.Pack(seg, int64(leaf*db.opt.NodeSize)), []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
	}
	twin, _ := pipelineDB(t, n)
	corrupt(twin)
	ref, tsrc, tdst := l0Job(t, twin)
	run, want := runReference(twin, ref, tsrc, tdst)
	if want == nil || run.merged == 0 {
		t.Fatalf("the reference merged %d entries and returned %v; the test lost its premise", run.merged, want)
	}

	db, _ := pipelineDB(t, n)
	corrupt(db)
	ref, src, dst := l0Job(t, db)
	before := runtime.NumGoroutine()
	_, err := db.pipeline(ref, src, dst)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("pipeline = %v, want the merge's %v", err, want)
	}
	if !errors.Is(err, btree.ErrCorruptNode) {
		t.Fatalf("pipeline = %v, want a corrupt-node error", err)
	}
	noNewGoroutines(t, before)
}

// segmentHook is a listener that runs fn on the job's goroutine for
// every index segment it is handed, after recording it.
type segmentHook struct {
	recordingListener
	fn func()
}

func (h *segmentHook) OnIndexSegment(job CompactionJob, seg btree.EmittedSegment) {
	h.recordingListener.OnIndexSegment(job, seg)
	h.fn()
}

// TestPipelineBuildWaitsForTheShip: a job is one goroutine, so while the
// listener holds a segment the build waits for it — the job writes no
// further segment until the listener returns.
func TestPipelineBuildWaitsForTheShip(t *testing.T) {
	db, dev := pipelineDB(t, 3000)
	ref, src, dst := l0Job(t, db)
	dev.failAt = math.MaxInt64 // armed past every write: it counts them
	blocked, release := make(chan int64), make(chan struct{})
	first := true
	db.SetListener(&segmentHook{fn: func() {
		if first {
			first = false
			blocked <- dev.writes.Load()
			<-release
		}
	}})
	done := make(chan error, 1)
	go func() {
		_, err := db.pipeline(ref, src, dst)
		done <- err
	}()
	at := <-blocked
	time.Sleep(50 * time.Millisecond) // room for a build that does not wait
	now := dev.writes.Load()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if at != 1 || now != at {
		t.Fatalf("the job had written %d segments when it shipped its first, and %d while the listener held it; want 1 and 1", at, now)
	}
}

// TestPipelineStagesSumToThePass: the stages of a job are timed apart on
// its one goroutine — the ship around each listener call, the build as
// the builder's node sealing, which stops before the ship, and the merge
// as the rest — so a slow listener is the ship's time, not the build's,
// and the three add up to no more than the job took.
func TestPipelineStagesSumToThePass(t *testing.T) {
	const perSegment = 5 * time.Millisecond
	db, _ := pipelineDB(t, 23000)
	hook := &segmentHook{fn: func() { time.Sleep(perSegment) }}
	db.SetListener(hook)
	ref, src, dst := l0Job(t, db)
	before := db.CompactionStats()
	start := time.Now()
	if _, err := db.pipeline(ref, src, dst); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	after := db.CompactionStats()

	k := len(hook.segments)
	if k < 8 {
		t.Fatalf("the job shipped %d segments; the test needs 8 or more", k)
	}
	merge := after.MergeTime - before.MergeTime
	build := after.BuildTime - before.BuildTime
	ship := after.ShipTime - before.ShipTime
	t.Logf("%d segments: merge %v, build %v, ship %v, wall %v", k, merge, build, ship, wall)
	if ship < time.Duration(k)*perSegment {
		t.Errorf("ship time %v, want at least %d × %v", ship, k, perSegment)
	}
	if build >= ship/2 {
		t.Errorf("build time %v, want under half the ship's %v: the build took in the listener's time", build, ship)
	}
	if merge+build+ship > wall {
		t.Errorf("merge %v + build %v + ship %v = %v, more than the job's %v", merge, build, ship, merge+build+ship, wall)
	}
}

// TestMergeOfTiedKeysAllocatesNothingPerEntry: a compaction whose keys
// all tie on their leaf prefixes reads both full keys of every
// comparison, and the builder the key of every entry the merge did not
// read (past the end of the other source, every entry ties with the one
// before it). Those reads land in buffers the cursors and the job's key
// reader own, and the builder copies the keys it keeps into buffers of
// its own, so a job allocates per job, per leaf and per segment, never
// per entry: under 0.01 allocations per merged entry, where a slice per
// key read costs one or more. And the tree the job builds finds its keys.
func TestMergeOfTiedKeysAllocatesNothingPerEntry(t *testing.T) {
	opt, _ := testOptions(t)
	opt.NodeSize = 4096 // a leaf of tied keys holds 679 entries
	opt.L0MaxKeys = 1 << 20
	opt.MaxLevels = 3
	db, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	// L2 holds the even keys below n; L1 the odd ones, interleaved with
	// them, and then n/2 keys past them.
	const n = 20000
	put := func(from, to, step int) {
		for i := from; i < to; i += step {
			if err := db.Put(sharedKey(i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, n, 2)
	if err := db.CompactAll(); err != nil { // into L2
		t.Fatal(err)
	}
	put(1, n, 2)
	put(n, n+n/2, 1)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	const merged = n + n/2
	if lv := db.Levels(); lv[0].NumKeys+lv[1].NumKeys != merged || lv[1].NumKeys != n/2 {
		t.Fatalf("levels hold %d and %d keys, want %d and %d", lv[0].NumKeys, lv[1].NumKeys, merged-n/2, n/2)
	}
	ref := CompactionJob{ID: 1 << 20, SrcLevel: 1, DstLevel: 2}
	build := func() btree.Built {
		src, _, err := db.levelCursor(1)
		if err != nil {
			t.Fatal(err)
		}
		dst, _, err := db.levelCursor(2)
		if err != nil {
			t.Fatal(err)
		}
		built, err := db.pipeline(ref, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if built.NumKeys != merged {
			t.Fatalf("the merge built %d keys, want %d", built.NumKeys, merged)
		}
		return built
	}
	job := func() {
		if err := db.freeLevel(&level{built: build()}); err != nil {
			t.Fatal(err)
		}
	}
	perEntry := testing.AllocsPerRun(3, job) / merged
	t.Logf("%.4f allocations per merged entry", perEntry)
	if perEntry >= 0.01 {
		t.Fatalf("a merge of tied keys allocates %.3f times per entry, want < 0.01", perEntry)
	}

	// The tree finds its keys: its pivots are copies the builder made,
	// not the merge's buffers, which later ties read over.
	tree := btree.NewTree(db.dev, db.opt.NodeSize, build().Root)
	keys := &keyReader{db: db}
	for i := 0; i < merged; i += 7 {
		if _, _, found, err := tree.Get(sharedKey(i), keys.read); err != nil || !found {
			t.Fatalf("the built tree's Get(%s) = %v, %v", sharedKey(i), found, err)
		}
	}
}
