package lsm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"tebis/internal/btree"
	"tebis/internal/kv"
	"tebis/internal/storage"
)

// jobWatcher snapshots, at every job's start and at its done, the
// device's counters and the engine's levels, and counts the segments
// the job emitted between the two.
type jobWatcher struct {
	recordingListener
	dev *storage.MemDevice
	db  *DB // set once New returns; no job runs before the first put

	mu   sync.Mutex
	jobs []watchedJob
}

type watchedJob struct {
	job           CompactionJob
	res           CompactionResult
	before, after storage.Stats
	levels        []LevelState // at the job's start
	segments      int
}

func (w *jobWatcher) OnCompactionStart(job CompactionJob) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.jobs = append(w.jobs, watchedJob{job: job, before: w.dev.Stats(), levels: w.db.Levels()})
}

func (w *jobWatcher) OnIndexSegment(job CompactionJob, seg btree.EmittedSegment) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.jobs[len(w.jobs)-1].segments++
}

func (w *jobWatcher) OnCompactionDone(res CompactionResult) {
	w.mu.Lock()
	defer w.mu.Unlock()
	j := &w.jobs[len(w.jobs)-1]
	j.res, j.after = res, w.dev.Stats()
}

// watchedDB is an engine of MaxLevels levels (L0MaxKeys 128, growth 4)
// whose jobs a jobWatcher records.
func watchedDB(t *testing.T, maxLevels int) (*DB, *jobWatcher) {
	t.Helper()
	opt, dev := testOptions(t)
	opt.L0MaxKeys = 128
	opt.MaxLevels = maxLevels
	w := &jobWatcher{dev: dev}
	opt.Listener = w
	db, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	w.db = db
	t.Cleanup(func() { db.Close() })
	return db, w
}

func moveKey(i int) []byte   { return []byte(fmt.Sprintf("move%06d", i*7919%100003)) }
func moveValue(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

// checkEveryKey reads keys [0, n) back by Get and by one Scan.
func checkEveryKey(t *testing.T, db *DB, n int) {
	t.Helper()
	want := map[string]string{}
	for i := 0; i < n; i++ {
		v, found, err := db.Get(moveKey(i))
		if err != nil || !found || !bytes.Equal(v, moveValue(i)) {
			t.Fatalf("Get(%s) = %q, %v, %v; want %q", moveKey(i), v, found, err, moveValue(i))
		}
		want[string(moveKey(i))] = string(moveValue(i))
	}
	var last []byte
	seen := 0
	if err := db.Scan(nil, func(p kv.Pair) bool {
		if last != nil && bytes.Compare(last, p.Key) >= 0 || want[string(p.Key)] != string(p.Value) {
			t.Fatalf("Scan: %q = %q after %q", p.Key, p.Value, last)
		}
		last = append(last[:0], p.Key...)
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("Scan saw %d pairs, want %d", seen, n)
	}
}

// TestMoveReadsWritesAndEmitsNothing: five L0 tables overfill L1
// (capacity 512) while L2 is empty, so the job of L1 into L2 moves the
// level: between its start and its done the device reads, writes,
// allocates and frees nothing and no segment is emitted; L2 is then the
// level L1 was — the same root, segments and filter — and every key
// reads back by Get and Scan as before.
func TestMoveReadsWritesAndEmitsNothing(t *testing.T) {
	db, w := watchedDB(t, 6)
	const n = 640
	for i := 0; i < n; i++ {
		if err := db.Put(moveKey(i), moveValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	w.mu.Lock()
	jobs := append([]watchedJob(nil), w.jobs...)
	w.mu.Unlock()
	var move *watchedJob
	for i := range jobs {
		if j := &jobs[i]; j.job.SrcLevel == 1 {
			if move != nil {
				t.Fatalf("two jobs of L1: %+v and %+v", move.job, j.job)
			}
			move = j
		}
	}
	if move == nil {
		t.Fatalf("no job of L1 into L2 among %d jobs", len(jobs))
	}
	if !move.job.Move || !move.res.Moved {
		t.Fatalf("the job of L1 into the empty L2 merged: start %+v, done moved=%v", move.job, move.res.Moved)
	}
	if move.before != move.after || move.segments != 0 {
		t.Fatalf("the move touched the device or emitted segments: before %+v, after %+v, %d segments",
			move.before, move.after, move.segments)
	}
	src := move.levels[0]
	if src.NumKeys != n || move.levels[1].NumKeys != 0 {
		t.Fatalf("at the move's start L1 holds %d keys and L2 %d, want %d and 0", src.NumKeys, move.levels[1].NumKeys, n)
	}
	if got := move.res.Built; got.Root != src.Root || got.NumKeys != n || got.Filter != src.Filter ||
		fmt.Sprint(got.Segments) != fmt.Sprint(src.Segments) {
		t.Fatalf("the move reports %+v, L1 was %+v", got, src)
	}
	lv := db.Levels()
	if lv[0].NumKeys != 0 || lv[1].Root != src.Root || lv[1].Filter != src.Filter ||
		fmt.Sprint(lv[1].Segments) != fmt.Sprint(src.Segments) {
		t.Fatalf("after the move L1 holds %d keys and L2 is %+v, want L2 = the L1 of %+v", lv[0].NumKeys, lv[1], src)
	}
	if st := db.CompactionStats(); st.Moves != 1 || st.Jobs != uint64(len(jobs)) {
		t.Fatalf("stats count %d jobs and %d moves, want %d and 1", st.Jobs, st.Moves, len(jobs))
	}
	checkEveryKey(t, db, n)
}

// TestMoveNeverTargetsTheLastLevel: with L2 the last level, the job of
// L1 into the empty L2 merges, because the merge into the last level
// is the one that drops tombstones — a move would carry L1's 100
// tombstones down for good.
func TestMoveNeverTargetsTheLastLevel(t *testing.T) {
	db, w := watchedDB(t, 3)
	for i := 0; i < 300; i++ {
		if err := db.Put(moveKey(i), moveValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := db.Delete(moveKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if lv := db.Levels(); lv[0].NumKeys != 300 || lv[1].NumKeys != 0 {
		t.Fatalf("L1 holds %d entries and L2 %d, want 300 (100 of them tombstones) and 0", lv[0].NumKeys, lv[1].NumKeys)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	last := w.jobs[len(w.jobs)-1]
	w.mu.Unlock()
	if last.job.SrcLevel != 1 || last.job.Move || last.res.Moved || last.segments == 0 {
		t.Fatalf("the job into the empty last level: %+v, moved=%v, %d segments; want a merge", last.job, last.res.Moved, last.segments)
	}
	if lv := db.Levels(); lv[0].NumKeys != 0 || lv[1].NumKeys != 200 {
		t.Fatalf("after the cascade L1 holds %d entries and L2 %d, want 0 and 200", lv[0].NumKeys, lv[1].NumKeys)
	}
	if st := db.CompactionStats(); st.Moves != 0 {
		t.Fatalf("%d moves, want none", st.Moves)
	}
	for i := 0; i < 300; i++ {
		v, found, err := db.Get(moveKey(i))
		if err != nil || found != (i >= 100) || found && !bytes.Equal(v, moveValue(i)) {
			t.Fatalf("Get(%s) = %q, %v, %v", moveKey(i), v, found, err)
		}
	}
}

// TestEveryJobIntoAnEmptyLevelMoves holds the planner to its rule over a
// workload of updates and deletes that reaches the last level, through
// background jobs and two CompactAll cascades: a job of a device level into an empty level that
// is not the last moves, and no other job does. So the guard that falls
// back to a merge when the destination needs a filter its source lacks
// never fires: the filter rule builds every level that a deeper one
// receives keys through with a filter.
func TestEveryJobIntoAnEmptyLevelMoves(t *testing.T) {
	db, w := watchedDB(t, 6)
	for round := 0; round < 3; round++ {
		for i := 0; i < 1500; i++ {
			k := moveKey((i*31 + round*500) % 2000)
			var err error
			if i%7 == 3 {
				err = db.Delete(k)
			} else {
				err = db.Put(k, moveValue(i))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		if round == 1 {
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	moves := 0
	for _, j := range w.jobs {
		src, dst := j.job.SrcLevel, j.job.DstLevel
		wantMove := src >= 1 && j.levels[dst-1].NumKeys == 0 && dst < len(j.levels)
		if j.job.Move != wantMove || j.res.Moved != wantMove {
			t.Fatalf("job %d, L%d into L%d (%d keys): move=%v, want %v", j.job.ID, src, dst, j.levels[dst-1].NumKeys, j.job.Move, wantMove)
		}
		if wantMove {
			moves++
			if j.job.Filter && j.levels[src-1].Filter == nil {
				t.Fatalf("job %d moves filterless L%d into L%d, which needs a filter", j.job.ID, src, dst)
			}
		}
	}
	if moves == 0 {
		t.Fatal("the workload moved no level")
	}
	if st := db.CompactionStats(); st.Moves != uint64(moves) {
		t.Fatalf("stats count %d moves, the listener saw %d", st.Moves, moves)
	}
}

// TestMoveFallsBackToAMergeForAFilter: an engine handed a filterless L1
// above an empty L2 and a populated L3 — a state the filter rule never
// builds — merges L1 into L2 rather than install a filterless level
// above keys.
func TestMoveFallsBackToAMergeForAFilter(t *testing.T) {
	opt, _ := testOptions(t)
	src, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < 300; i++ {
		if err := src.Put(moveKey(i), moveValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	l1 := src.Levels()[0]
	if l1.Filter != nil {
		t.Fatal("the only level holding keys has a filter")
	}
	db, err := NewFromState(opt, src.Log(), []LevelState{l1, {}, l1}, src.Watermark())
	if err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	job := db.newJobLocked(1)
	db.mu.Unlock()
	if !job.filter || job.move {
		t.Fatalf("job of filterless L1 into empty L2 above L3: filter=%v move=%v, want a merge that builds the filter", job.filter, job.move)
	}
}

// TestGCOnceMovesThroughEmptyLevels: a GC pass cascades the relocated
// records down every level with CompactAll; with the data in the last
// level, the levels between are empty and the cascade moves through
// them. After the pass no index entry in any level points into a
// released victim, and every key reads its newest value.
func TestGCOnceMovesThroughEmptyLevels(t *testing.T) {
	mem, err := storage.NewMemDevice(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingListener{}
	db, err := New(Options{Device: storage.AsVerifying(mem), NodeSize: 512, L0MaxKeys: 64, Seed: 1, Listener: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const keys, rounds = 120, 6
	overwriteWorkload(t, db, keys, rounds)
	before := db.CompactionStats()
	res, err := db.GCOnce(GCPolicy{MaxSegments: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsFreed == 0 || res.RecordsMoved == 0 {
		t.Fatalf("GC freed or moved nothing: %+v", res)
	}
	if moves := db.CompactionStats().Moves - before.Moves; moves == 0 {
		t.Fatal("the GC cascade moved no level")
	}
	if db.L0Len() != 0 {
		t.Fatalf("L0 holds %d keys after the cascade", db.L0Len())
	}
	victims := map[storage.SegmentID]bool{}
	for _, seg := range res.Victims {
		victims[seg] = true
	}
	for i, st := range db.Levels() {
		if st.NumKeys == 0 {
			continue
		}
		var it btree.Iterator
		for it.First(btree.NewTree(db.dev, db.opt.NodeSize, st.Root)); it.Valid(); it.Next() {
			if off := it.Entry().ValueOff; victims[db.geo.Segment(off)] {
				t.Fatalf("L%d holds an entry at %#x, in released victim %d", i+1, off, db.geo.Segment(off))
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
	}
	checkWorkloadReads(t, db, keys, rounds)
}
