package lsm

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"tebis/internal/metrics"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// gcTestDB builds a small-segment engine and returns it with its
// device; the workload helpers below push it into a heavily-overwritten
// state where most sealed segments are mostly dead.
func gcTestDB(t *testing.T) *DB {
	t.Helper()
	mem, err := storage.NewMemDevice(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(Options{Device: storage.AsVerifying(mem), NodeSize: 512, L0MaxKeys: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// overwriteWorkload writes rounds full passes over keys fixed-size
// values and compacts, leaving early log segments mostly dead.
func overwriteWorkload(t *testing.T, db *DB, keys, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for i := 0; i < keys; i++ {
			k := []byte(fmt.Sprintf("key-%04d", i))
			v := []byte(fmt.Sprintf("val-%02d-%04d-0123456789abcdef", r, i))
			if err := db.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
}

func checkWorkloadReads(t *testing.T, db *DB, keys, rounds int) {
	t.Helper()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%04d", i)
		want := fmt.Sprintf("val-%02d-%04d-0123456789abcdef", rounds-1, i)
		v, found, err := db.Get([]byte(k))
		if err != nil || !found || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v, %v; want %q", k, v, found, err, want)
		}
	}
}

// TestGCOnceReclaimsOverwrittenSegments is the tentpole happy path: an
// overwrite-heavy log sheds its mostly-dead segments in one pass, every
// key still reads its newest value, and the space ledger shrinks.
func TestGCOnceReclaimsOverwrittenSegments(t *testing.T) {
	db := gcTestDB(t)
	const keys, rounds = 120, 8
	overwriteWorkload(t, db, keys, rounds)

	before := db.Log().SpaceReport()
	if before.Dead == 0 {
		t.Fatal("overwrite workload recorded no dead bytes")
	}
	var stats metrics.GCStats
	res, err := db.GCOnce(GCPolicy{MinDeadRatio: 0.5, MaxSegments: 64, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsFreed == 0 || res.BytesReclaimed == 0 {
		t.Fatalf("GC freed nothing: %+v (space %+v)", res, before)
	}
	if res.Paused {
		t.Fatalf("unpaced pass reported Paused: %+v", res)
	}
	checkWorkloadReads(t, db, keys, rounds)

	after := db.Log().SpaceReport()
	if after.Dead >= before.Dead {
		t.Fatalf("dead bytes did not shrink: before %d, after %d", before.Dead, after.Dead)
	}
	if after.Trimmed <= before.Trimmed {
		t.Fatalf("trimmed counter did not grow: before %d, after %d", before.Trimmed, after.Trimmed)
	}
	snap := stats.Snapshot()
	if snap.Passes != 1 || snap.SegmentsFreed != uint64(res.SegmentsFreed) ||
		snap.BytesReclaimed != res.BytesReclaimed {
		t.Fatalf("stats %+v do not match result %+v", snap, res)
	}

	// The engine keeps working after the pass: writes, reads, another GC.
	overwriteWorkload(t, db, keys, 2)
	if _, err := db.GCOnce(GCPolicy{MaxSegments: 64}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if _, found, err := db.Get([]byte(k)); err != nil || !found {
			t.Fatalf("Get(%s) after second pass: found=%v err=%v", k, found, err)
		}
	}
}

// TestGCOnceVictimSelection pins the cost model: segments below the
// dead-ratio threshold are never picked, and MaxSegments caps a pass.
func TestGCOnceVictimSelection(t *testing.T) {
	db := gcTestDB(t)
	overwriteWorkload(t, db, 120, 6)

	// An impossible threshold selects nothing and frees nothing.
	res, err := db.GCOnce(GCPolicy{MinDeadRatio: 1.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsFreed != 0 || len(res.Victims) != 0 {
		t.Fatalf("threshold 1.01 still freed segments: %+v", res)
	}

	rep := db.Log().SpaceReport()
	eligible := 0
	for _, s := range rep.Segments {
		if s.DeadRatio() >= 0.5 {
			eligible++
		}
	}
	if eligible < 3 {
		t.Skipf("only %d eligible victims; workload too small", eligible)
	}
	res, err = db.GCOnce(GCPolicy{MinDeadRatio: 0.5, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Victims) != 2 {
		t.Fatalf("MaxSegments=2 processed %d victims (%d eligible)", len(res.Victims), eligible)
	}
}

// countingPacer allows the first n checks, then pauses.
type countingPacer struct{ allow int }

func (p *countingPacer) GCAllowed() bool {
	p.allow--
	return p.allow >= 0
}

// TestGCOncePacerPause covers both pause points: a pacer that is
// already unhappy stops the pass before it plans, and one that turns
// unhappy mid-pass truncates the victim list but still completes
// seal/compact/release for what moved.
func TestGCOncePacerPause(t *testing.T) {
	db := gcTestDB(t)
	overwriteWorkload(t, db, 120, 6)

	var stats metrics.GCStats
	res, err := db.GCOnce(GCPolicy{Pacer: &countingPacer{allow: 0}, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Paused || res.SegmentsFreed != 0 {
		t.Fatalf("pre-pass pause: %+v", res)
	}
	if stats.Snapshot().Paused != 1 {
		t.Fatalf("paused counter = %d, want 1", stats.Snapshot().Paused)
	}

	rep := db.Log().SpaceReport()
	eligible := 0
	for _, s := range rep.Segments {
		if s.DeadRatio() >= 0.5 {
			eligible++
		}
	}
	if eligible < 2 {
		t.Skipf("only %d eligible victims", eligible)
	}
	// Allow the pre-pass check plus one between-victim check, then pause:
	// exactly one victim completes the full pipeline.
	res, err = db.GCOnce(GCPolicy{MaxSegments: 64, Pacer: &countingPacer{allow: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Paused {
		t.Fatalf("mid-pass pause not reported: %+v", res)
	}
	if len(res.Victims) != 1 || res.SegmentsFreed != 1 {
		t.Fatalf("mid-pass pause should complete exactly 1 victim: %+v", res)
	}
	checkWorkloadReads(t, db, 120, 6)
}

// TestGCOnceTombstoneDragSurvivesRecovery is the resurrection guard:
// GC frees a mid-log victim holding the tombstones of keys whose
// original puts survive in older segments. The dragged tombstones must
// keep those keys dead across a crash-recovery replay.
func TestGCOnceTombstoneDragSurvivesRecovery(t *testing.T) {
	const segSize = 4096
	path := filepath.Join(t.TempDir(), "dev")
	fdev, err := storage.NewFileDevice(path, segSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(Options{Device: storage.AsVerifying(fdev), NodeSize: 512, L0MaxKeys: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The oldest segments interleave doomed puts with keepers that stay
	// live forever, pinning those segments under any victim threshold:
	// the hazard needs the doomed puts to SURVIVE the pass that frees
	// their tombstones.
	const doomed, keepers, filler = 40, 40, 60
	val32 := []byte("vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv")
	for i := 0; i < doomed; i++ {
		if err := db.Put([]byte(fmt.Sprintf("keeper-%03d", i)), val32); err != nil {
			t.Fatal(err)
		}
		if err := db.Put([]byte(fmt.Sprintf("doomed-%03d", i)), val32); err != nil {
			t.Fatal(err)
		}
	}
	// Filler seals the old segments behind newer ones; the deletes land
	// in those newer segments; overwriting the filler twice makes the
	// tombstone-bearing segments almost entirely dead.
	for r := 0; r < 3; r++ {
		for i := 0; i < filler; i++ {
			v := []byte(fmt.Sprintf("fill-%d-aaaaaaaaaaaaaaaaaaaaaaaaaa", r))
			if err := db.Put([]byte(fmt.Sprintf("filler-%03d", i)), v); err != nil {
				t.Fatal(err)
			}
		}
		if r == 0 {
			for i := 0; i < doomed; i++ {
				if err := db.Delete([]byte(fmt.Sprintf("doomed-%03d", i))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// The cascade reaches the last level, dropping the doomed keys' index
	// tombstones — the records on the log are now dead tombstones.
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}

	// Threshold 0.8 frees the tombstone/filler segments but not the
	// keeper-pinned old segments.
	res, err := db.GCOnce(GCPolicy{MinDeadRatio: 0.8, MaxSegments: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsFreed == 0 {
		t.Skipf("no victim reached ratio 0.8: %+v", res)
	}
	if res.TombstonesDragged == 0 {
		t.Fatalf("freed the tombstone-bearing segments without dragging: %+v", res)
	}
	// Deleted keys must be gone before and after crash recovery.
	for i := 0; i < doomed; i++ {
		k := fmt.Sprintf("doomed-%03d", i)
		if _, found, err := db.Get([]byte(k)); err != nil || found {
			t.Fatalf("Get(%s) pre-crash: found=%v err=%v", k, found, err)
		}
	}

	// Crash: the device dies with the process, no flush or close.
	if err := fdev.Close(); err != nil {
		t.Fatal(err)
	}
	rdev, err := storage.OpenFileDevice(path, segSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	db2, _, err := Open(Options{Device: storage.AsVerifying(rdev), NodeSize: 512, L0MaxKeys: 64, Seed: 1})
	if err != nil {
		t.Fatalf("recovery after GC: %v", err)
	}
	defer db2.Close()
	for i := 0; i < doomed; i++ {
		k := fmt.Sprintf("doomed-%03d", i)
		if _, found, err := db2.Get([]byte(k)); err != nil || found {
			t.Fatalf("Get(%s) resurrected after recovery replay (found=%v err=%v)", k, found, err)
		}
	}
	for i := 0; i < keepers; i++ {
		k := fmt.Sprintf("keeper-%03d", i)
		if _, found, err := db2.Get([]byte(k)); err != nil || !found {
			t.Fatalf("Get(%s) lost after recovery (found=%v err=%v)", k, found, err)
		}
	}
	for i := 0; i < filler; i++ {
		k := fmt.Sprintf("filler-%03d", i)
		v, found, err := db2.Get([]byte(k))
		if err != nil || !found || string(v) != "fill-2-aaaaaaaaaaaaaaaaaaaaaaaaaa" {
			t.Fatalf("Get(%s) after recovery = %q, %v, %v", k, v, found, err)
		}
	}
}

// gcCrash aborts a GC pass at the target phase, modeling a process
// crash at that boundary.
var errGCCrash = errors.New("injected GC crash")

// TestGCOnceCrashAtEveryPhase runs the full overwrite workload on a
// file-backed engine, aborts a GC pass at each phase boundary in turn,
// power-cuts the device, and requires recovery to serve every
// acknowledged key — zero lost acks, zero wrong reads, at any boundary.
func TestGCOnceCrashAtEveryPhase(t *testing.T) {
	phases := []GCPhase{GCPhasePlan, GCPhaseRelocate, GCPhaseSeal, GCPhaseCompact, GCPhaseRelease}
	for _, ph := range phases {
		ph := ph
		t.Run(ph.String(), func(t *testing.T) {
			const segSize = 4096
			const keys, rounds = 120, 6
			path := filepath.Join(t.TempDir(), "dev")
			fdev, err := storage.NewFileDevice(path, segSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			db, err := New(Options{Device: storage.AsVerifying(fdev), NodeSize: 512, L0MaxKeys: 64, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			overwriteWorkload(t, db, keys, rounds)
			// Seal the workload's tail so every key counts as acknowledged
			// durable — from here on, only GC writes enter the log, so the
			// power cut below tests exactly what a mid-GC crash loses.
			if _, err := db.Log().Seal(); err != nil {
				t.Fatal(err)
			}

			_, err = db.GCOnce(GCPolicy{MaxSegments: 64, Hook: func(p GCPhase) error {
				if p == ph {
					return errGCCrash
				}
				return nil
			}})
			if !errors.Is(err, errGCCrash) {
				t.Fatalf("GC pass did not stop at %v: %v", ph, err)
			}

			// Everything acknowledged must still serve, mid-crashed-pass...
			checkWorkloadReads(t, db, keys, rounds)

			// ...and after a power cut and replay-based recovery. Crashing
			// before Seal loses the unsealed relocation copies, and that
			// must lose nothing: the victims were not freed, so the
			// original records still back every read. Crashing at Compact
			// or Release finds the copies sealed and replay prefers them
			// (newest copy wins in log order).
			if err := fdev.Close(); err != nil {
				t.Fatal(err)
			}
			rdev, err := storage.OpenFileDevice(path, segSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			db2, _, err := Open(Options{Device: storage.AsVerifying(rdev), NodeSize: 512, L0MaxKeys: 64, Seed: 1})
			if err != nil {
				t.Fatalf("recovery after crash at %v: %v", ph, err)
			}
			defer db2.Close()
			checkWorkloadReads(t, db2, keys, rounds)

			// The recovered engine can run the pass to completion.
			if _, err := db2.GCOnce(GCPolicy{MaxSegments: 64}); err != nil {
				t.Fatalf("GC after recovery: %v", err)
			}
			checkWorkloadReads(t, db2, keys, rounds)
		})
	}
}

// TestGCOnceTornSealRecovers tears the device write that seals the
// relocation tail — a crash inside the commit point itself — and
// requires recovery to keep every acknowledged key: the victims were
// not freed, so the pre-relocation copies still back every read.
func TestGCOnceTornSealRecovers(t *testing.T) {
	const segSize = 4096
	const keys, rounds = 120, 6
	path := filepath.Join(t.TempDir(), "dev")
	fdev, err := storage.NewFileDevice(path, segSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	fault := storage.NewFaultDevice(fdev)
	db, err := New(Options{Device: storage.AsVerifying(fault), NodeSize: 512, L0MaxKeys: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	overwriteWorkload(t, db, keys, rounds)
	// Seal the workload's tail first: the GC tail then carries only
	// relocation copies, so tearing its seal loses copies, never
	// acknowledged data.
	if _, err := db.Log().Seal(); err != nil {
		t.Fatal(err)
	}

	// Arm the tear at the seal phase: the very next device write is the
	// relocation tail's frame, and it tears mid-payload.
	_, gcErr := db.GCOnce(GCPolicy{MaxSegments: 64, Hook: func(p GCPhase) error {
		if p == GCPhaseSeal {
			fault.InjectFault(func(op storage.FaultOp, _ int, _ storage.Offset, _ []byte) storage.Fault {
				if op == storage.FaultWrite {
					return storage.Fault{Action: storage.FaultTear, TearAt: segSize / 2}
				}
				return storage.Fault{}
			})
		}
		return nil
	}})
	if gcErr == nil {
		// The seal may have had nothing to flush (tail empty): no write
		// occurred, so no tear. Nothing to test then.
		if fault.FaultStats().Torn == 0 {
			t.Skip("GC pass sealed nothing; tear never fired")
		}
		t.Fatal("torn seal write did not error the GC pass")
	}
	if err := fdev.Close(); err != nil {
		t.Fatal(err)
	}

	rdev, err := storage.OpenFileDevice(path, segSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	db2, _, err := Open(Options{Device: storage.AsVerifying(rdev), NodeSize: 512, L0MaxKeys: 64, Seed: 1})
	if err != nil {
		t.Fatalf("recovery after torn GC seal: %v", err)
	}
	defer db2.Close()
	checkWorkloadReads(t, db2, keys, rounds)
}

// TestGCOnceConcurrentWritesWin races foreground overwrites against a
// GC pass: a record overwritten between the pre-filter and the locked
// re-check must not be resurrected by relocation.
func TestGCOnceConcurrentWritesWin(t *testing.T) {
	db := gcTestDB(t)
	const keys, rounds = 120, 6
	overwriteWorkload(t, db, keys, rounds)

	done := make(chan error, 1)
	go func() {
		for r := 0; r < 4; r++ {
			for i := 0; i < keys; i++ {
				k := []byte(fmt.Sprintf("key-%04d", i))
				v := []byte(fmt.Sprintf("rac-%02d-%04d-0123456789abcdef", r, i))
				if err := db.Put(k, v); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	for pass := 0; pass < 3; pass++ {
		if _, err := db.GCOnce(GCPolicy{MaxSegments: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Every key reads the racer's final value.
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%04d", i)
		want := fmt.Sprintf("rac-03-%04d-0123456789abcdef", i)
		v, found, err := db.Get([]byte(k))
		if err != nil || !found || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v, %v; want %q", k, v, found, err, want)
		}
	}
}

// TestVlogSpaceLedgerAccounting pins the dead-byte bookkeeping the GC
// cost model runs on: overwrites and deletes surface as dead bytes, and
// totals stay consistent with the log's position.
func TestVlogSpaceLedgerAccounting(t *testing.T) {
	db := gcTestDB(t)
	rep := db.Log().SpaceReport()
	if rep.Live != 0 || rep.Dead != 0 {
		t.Fatalf("fresh log space = %+v", rep)
	}
	// In-place L0 overwrite: 40 puts fit one L0 generation (cap 64), so
	// overwriting ten of them marks their prev offsets dead immediately,
	// without any compaction.
	const keys = 200
	for i := 0; i < 40; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("aaaaaaaaaaaaaaaa")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("bbbbbbbbbbbbbbbb")); err != nil {
			t.Fatal(err)
		}
	}
	rep = db.Log().SpaceReport()
	wantRec := uint64(vlog.EncodedLen(len("key-0000"), 16))
	if rep.Dead < 10*wantRec {
		t.Fatalf("after 10 L0 overwrites dead = %d, want >= %d", rep.Dead, 10*wantRec)
	}
	deadAfterOverwrites := rep.Dead

	// Compaction-time discard: load the full keyset, flush, overwrite.
	for i := 40; i < keys; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("aaaaaaaaaaaaaaaa")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("cccccccccccccccc")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	rep = db.Log().SpaceReport()
	if rep.Dead < deadAfterOverwrites+uint64(keys)*wantRec/2 {
		t.Fatalf("merge discard did not record dead bytes: %d", rep.Dead)
	}

	// Tombstone drop: delete half, compact, the tombstones themselves
	// plus the overwritten puts go dead.
	deadBefore := rep.Dead
	for i := 0; i < keys/2; i++ {
		if err := db.Delete([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	rep = db.Log().SpaceReport()
	if rep.Dead <= deadBefore {
		t.Fatalf("deletes did not record dead bytes: before %d after %d", deadBefore, rep.Dead)
	}

	// The ledger's totals cover every sealed segment exactly.
	var sum uint64
	for _, s := range rep.Segments {
		if s.Dead > s.Total {
			t.Fatalf("segment %d dead %d > total %d", s.Seg, s.Dead, s.Total)
		}
		sum += s.Total
	}
	if live := db.Log().Segments(); len(live) != len(rep.Segments) {
		t.Fatalf("ledger tracks %d segments, log holds %d sealed", len(rep.Segments), len(live))
	}
	_ = sum
}

// TestGCOnceRecordLenAndVictimOrder pins two internals the protocol
// depends on: RecordLen reads back the exact on-log record length, and
// planVictims returns victims oldest-first so the tombstone-drop rule
// applies maximally.
func TestGCOnceRecordLenAndVictimOrder(t *testing.T) {
	db := gcTestDB(t)
	key, val := []byte("k-recordlen"), []byte("0123456789")
	if err := db.Put(key, val); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	e, found := db.entryAtLocked(key)
	db.mu.RUnlock()
	if !found {
		t.Fatal("entry not found after Put")
	}
	n, err := db.Log().RecordLen(e.Off)
	if err != nil {
		t.Fatal(err)
	}
	if want := vlog.EncodedLen(len(key), len(val)); n != want {
		t.Fatalf("RecordLen = %d, want %d", n, want)
	}

	overwriteWorkload(t, db, 120, 6)
	victims := db.planVictims(GCPolicy{MinDeadRatio: 0.5, MaxSegments: 64})
	segs := db.Log().Segments()
	pos := map[storage.SegmentID]int{}
	for i, s := range segs {
		pos[s] = i
	}
	for i := 1; i < len(victims); i++ {
		if pos[victims[i-1]] >= pos[victims[i]] {
			t.Fatalf("victims not in log order: %v (positions %v)", victims, pos)
		}
	}

	_, err = db.Log().RecordLen(storage.NilOffset)
	if err == nil {
		t.Fatal("RecordLen(NilOffset) did not error")
	}
}

// TestGCOnceMovesLiveRecords pins relocation: keys written once and
// never overwritten sit in segments the overwrite rounds turn mostly
// dead, so a pass must move them to the tail, not lose them.
func TestGCOnceMovesLiveRecords(t *testing.T) {
	db := gcTestDB(t)
	const keepers = 30
	for i := 0; i < keepers; i++ {
		if err := db.Put([]byte(fmt.Sprintf("keeper-%03d", i)), []byte("payload-0123456789")); err != nil {
			t.Fatal(err)
		}
		// Interleave churn so every early segment holds a few keepers
		// among records the later rounds supersede.
		for j := 0; j < 8; j++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%04d", i*8+j)), []byte("val-00-0123456789abcdef")); err != nil {
				t.Fatal(err)
			}
		}
	}
	overwriteWorkload(t, db, keepers*8, 4)

	res, err := db.GCOnce(GCPolicy{MinDeadRatio: 0.5, MaxSegments: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsFreed == 0 || res.RecordsMoved == 0 || res.RecordsDropped == 0 {
		t.Fatalf("pass freed %d segments, moved %d, dropped %d records; want all non-zero",
			res.SegmentsFreed, res.RecordsMoved, res.RecordsDropped)
	}
	for i := 0; i < keepers; i++ {
		k := fmt.Sprintf("keeper-%03d", i)
		v, found, err := db.Get([]byte(k))
		if err != nil || !found || string(v) != "payload-0123456789" {
			t.Fatalf("Get(%s) after GC = %q, %v, %v", k, v, found, err)
		}
	}
	checkWorkloadReads(t, db, keepers*8, 4)
}

func TestGCOnceOnEmptyLog(t *testing.T) {
	db := gcTestDB(t)
	res, err := db.GCOnce(GCPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Victims) != 0 || res.SegmentsFreed != 0 || res.RecordsMoved != 0 {
		t.Fatalf("GC on an empty log did work: %+v", res)
	}
}

// TestGCOnceNotifiesListener: a pass that frees segments tells the
// listener exactly once, naming the victims, after the relocation
// commit point (the forced seal) was announced.
func TestGCOnceNotifiesListener(t *testing.T) {
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
	overwriteWorkload(t, db, 120, 6)
	res, err := db.GCOnce(GCPolicy{MaxSegments: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsFreed == 0 {
		t.Fatalf("GC freed nothing: %+v", res)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.releases) != 1 || !slices.Equal(rec.releases[0], res.Victims) {
		t.Fatalf("OnRelease calls = %v, want one naming %v", rec.releases, res.Victims)
	}
	if rec.gcSeals != 1 {
		t.Fatalf("OnSeal fired %d times in one pass, want 1", rec.gcSeals)
	}
}
