package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
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
	return CompactionJob{ID: 1 << 20, SrcLevel: 0, DstLevel: 1}, &memCursor{it: mt.Iter()}, dst
}

// referenceRun is what the pipeline computes, on one goroutine:
// mergeStream straight into a btree.Builder, with the build stage's
// tombstone rule and charges. at[i] is how many entries the merge had
// emitted when the i-th segment was emitted.
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
	fullKey := func(off storage.Offset) ([]byte, error) {
		return db.readKey(off, metrics.CompCompaction)
	}
	dropTombstones := ref.DstLevel == len(db.levels)-1
	deadHdr := make([]byte, vlog.HeaderSize)
	err = db.mergeStream(src, dst, func(e mergedEntry) error {
		r.merged++
		if e.Tombstone && dropTombstones {
			db.recordDead(e.ValueOff, deadHdr)
			return nil
		}
		return b.AddEntry(e.LeafEntry, e.key, fullKey)
	})
	if err != nil {
		return r, err
	}
	r.built, err = b.Finish()
	return r, err
}

// TestPipelineMatchesSingleGoroutineReference: the pipeline's batched
// merge → build hand-off changes where work runs, not what it produces.
// At job sizes around and across the batch boundary, one engine runs the
// job through the pipeline and its twin through the reference, and the
// two must emit the same segments, byte for byte, build the same tree,
// charge the same compaction cycles and leave the same dead-bytes ledger.
func TestPipelineMatchesSingleGoroutineReference(t *testing.T) {
	for _, n := range []int{0, 1, mergeBatch - 1, mergeBatch, mergeBatch + 1, 3*mergeBatch + 1} {
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
				if es.Seg != w.Seg || es.Kind != w.Kind || !bytes.Equal(es.Data, w.Data) {
					t.Fatalf("segment %d: pipeline %d/%v/%d bytes, reference %d/%v/%d bytes, or the bytes differ",
						i, es.Seg, es.Kind, len(es.Data), w.Seg, w.Kind, len(w.Data))
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

// waitGoroutines fails t unless the goroutine count falls back to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the job, %d after it — a pipeline stage leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// midBatch reports whether the merge stage had emitted merged entries
// when something happened that puts the build stage inside a batch: not
// on the batch's first entry and not on its last.
func midBatch(merged int) bool {
	pos := (merged - 1) % mergeBatch
	return merged > 0 && pos != 0 && pos != mergeBatch-1
}

// TestPipelineBuildErrorMidBatch: a segment write that fails while the
// build stage is inside a batch is the job's error, and no stage outlives
// the job. Which write that is comes from the twin's reference run.
func TestPipelineBuildErrorMidBatch(t *testing.T) {
	const n = 3000
	twin, _ := pipelineDB(t, n)
	ref, tsrc, tdst := l0Job(t, twin)
	want, err := runReference(twin, ref, tsrc, tdst)
	if err != nil {
		t.Fatal(err)
	}
	failAt := 0
	for i, at := range want.at {
		if midBatch(at) {
			failAt = i + 1
			break
		}
	}
	if failAt == 0 {
		t.Fatalf("no segment was emitted inside a batch (%v); the test lost its premise", want.at)
	}

	db, dev := pipelineDB(t, n)
	ref, src, dst := l0Job(t, db)
	before := runtime.NumGoroutine()
	dev.failAt = int64(failAt)
	_, err = db.pipeline(ref, src, dst)
	if !errors.Is(err, errInjected) {
		t.Fatalf("pipeline = %v, want the injected write failure", err)
	}
	waitGoroutines(t, before)
}

// TestPipelineMergeErrorMidBatch: a corrupt source leaf that the merge
// reaches inside a batch fails the job with the merge's error, not with
// the abort the other stages see, and no stage outlives the job.
func TestPipelineMergeErrorMidBatch(t *testing.T) {
	const n = 3000
	// corrupt overwrites the kind byte of L1's leaf-th leaf.
	corrupt := func(db *DB, leaf int) {
		t.Helper()
		seg := db.Levels()[0].Segments[0] // the first leaf segment
		if err := db.dev.WriteAt(db.geo.Pack(seg, int64(leaf*db.opt.NodeSize)), []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
	}
	leaf := 0
	var want error
	for l := 1; l < 16 && leaf == 0; l++ {
		twin, _ := pipelineDB(t, n)
		corrupt(twin, l)
		ref, tsrc, tdst := l0Job(t, twin)
		run, err := runReference(twin, ref, tsrc, tdst)
		if err == nil {
			t.Fatalf("the reference merged past corrupt leaf %d", l)
		}
		if midBatch(run.merged + 1) {
			leaf, want = l, err
		}
	}
	if leaf == 0 {
		t.Fatal("no corrupt leaf is reached inside a batch; the test lost its premise")
	}

	db, _ := pipelineDB(t, n)
	corrupt(db, leaf)
	ref, src, dst := l0Job(t, db)
	before := runtime.NumGoroutine()
	_, err := db.pipeline(ref, src, dst)
	if err == nil || errors.Is(err, errPipelineAborted) || err.Error() != want.Error() {
		t.Fatalf("pipeline = %v, want the merge's %v", err, want)
	}
	if !errors.Is(err, btree.ErrCorruptNode) {
		t.Fatalf("pipeline = %v, want a corrupt-node error", err)
	}
	waitGoroutines(t, before)
}
