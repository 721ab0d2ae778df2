package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"tebis/internal/btree"
	"tebis/internal/kv"
	"tebis/internal/obs"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// durabilityTracker is a Listener that mirrors the engine's durability
// contract: a record is acknowledged-durable once the value-log seal
// covering it completes. It decodes each appended record and promotes
// the pending batch to the durable map when OnAppend reports a seal.
type durabilityTracker struct {
	pending []kvOp
	durable map[string][]byte // nil value = tombstone
}

type kvOp struct {
	key string
	val []byte // nil = tombstone
}

func newDurabilityTracker() *durabilityTracker {
	return &durabilityTracker{durable: make(map[string][]byte)}
}

func (d *durabilityTracker) OnAppend(res vlog.AppendResult, _ *obs.ReqTrace) {
	if res.Sealed != nil {
		for _, op := range d.pending {
			d.durable[op.key] = op.val
		}
		d.pending = d.pending[:0]
	}
	walked := 0
	vlog.WalkImage(res.Rec, func(_ int64, key, value []byte, tomb bool, recLen int) bool {
		op := kvOp{key: string(key)}
		if !tomb {
			op.val = append([]byte{}, value...)
		}
		d.pending = append(d.pending, op)
		walked += recLen
		return true
	})
	if walked != len(res.Rec) {
		panic(fmt.Sprintf("appended record of %d bytes decodes to %d", len(res.Rec), walked))
	}
}

func (d *durabilityTracker) OnCompactionStart(CompactionJob)                    {}
func (d *durabilityTracker) OnIndexSegment(CompactionJob, btree.EmittedSegment) {}
func (d *durabilityTracker) OnCompactionDone(CompactionResult)                  {}
func (d *durabilityTracker) OnSeal(*vlog.Sealed)                                {}
func (d *durabilityTracker) OnRelease([]storage.SegmentID)                      {}

// TestEngineCrashPoints power-cuts a file-backed engine at 25 randomized
// crash points. Each point tears device write #k — which, with
// compactions running, lands on value-log seals, index-segment flushes,
// and frame-trailer writes alike — then reopens through lsm.Open and
// checks the durability contract: the recovered database contains
// exactly the acknowledged (sealed) writes, with the exact values, and
// never invents or mixes data.
func TestEngineCrashPoints(t *testing.T) {
	const (
		crashPoints = 25
		segSize     = 4096
		keySpace    = 400
		maxOps      = 40000
	)
	for k := 0; k < crashPoints; k++ {
		k := k
		t.Run(fmt.Sprintf("tearWrite%02d", k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x5EED + int64(k)))
			tearAt := rng.Intn(segSize)
			path := filepath.Join(t.TempDir(), "dev")

			fdev, err := storage.NewFileDevice(path, segSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			fault := storage.NewFaultDevice(fdev)
			fault.InjectFault(func(op storage.FaultOp, seq int, _ storage.Offset, _ []byte) storage.Fault {
				if op == storage.FaultWrite && seq == k {
					return storage.Fault{Action: storage.FaultTear, TearAt: tearAt}
				}
				return storage.Fault{}
			})

			tracker := newDurabilityTracker()
			db, err := New(Options{
				Device:    storage.AsVerifying(fault),
				NodeSize:  512,
				L0MaxKeys: 64,
				Seed:      1,
				Listener:  tracker,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Mixed put/delete workload until the injected tear fires —
			// either synchronously (a torn seal fails the Put) or in a
			// background compaction (detected via fault stats).
			crashed := false
			for i := 0; i < maxOps; i++ {
				key := fmt.Sprintf("key-%05d", rng.Intn(keySpace))
				var opErr error
				if i%7 == 6 {
					opErr = db.Delete([]byte(key))
				} else {
					val := make([]byte, 24+rng.Intn(32))
					rng.Read(val)
					copy(val, key) // make values self-identifying
					opErr = db.Put([]byte(key), val)
				}
				if opErr != nil {
					crashed = true
					break
				}
				if fault.FaultStats().Torn > 0 {
					crashed = true
					break
				}
			}
			if !crashed {
				t.Fatalf("workload of %d ops never reached torn write %d", maxOps, k)
			}
			// Crash: the device dies with the process; no Close/flush.
			if err := fdev.Close(); err != nil {
				t.Fatal(err)
			}

			rdev, err := storage.OpenFileDevice(path, segSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			db2, info, err := Open(Options{
				Device:    storage.AsVerifying(rdev),
				NodeSize:  512,
				L0MaxKeys: 64,
				Seed:      1,
			})
			if err != nil {
				t.Fatalf("recover after torn write %d (tearAt=%d): %v", k, tearAt, err)
			}
			defer db2.Close()

			// The recovered database must hold exactly the acknowledged
			// writes. Replay may additionally recover the final batch if
			// the tear landed past the trailer commit point, so a durable
			// mismatch is only fatal when the recovered value matches
			// neither the durable value nor the in-flight one.
			lastPending := make(map[string][]byte)
			for _, op := range tracker.pending {
				lastPending[op.key] = op.val
			}
			if info.RecordsReplayed == 0 && len(tracker.durable) > 0 {
				t.Fatalf("recovery replayed nothing but %d records were acknowledged", len(tracker.durable))
			}
			for i := 0; i < keySpace; i++ {
				key := fmt.Sprintf("key-%05d", i)
				want, wantOK := tracker.durable[key]
				got, found, err := db2.Get([]byte(key))
				if err != nil {
					t.Fatalf("Get(%s) after recovery: %v", key, err)
				}
				pend, pendOK := lastPending[key]
				switch {
				case found && wantOK && want != nil && bytes.Equal(got, want):
					// acknowledged value survived
				case found && pendOK && pend != nil && bytes.Equal(got, pend):
					// torn batch happened to commit; in-flight value is legal
				case !found && ((wantOK && want == nil) || (!wantOK && !pendOK)):
					// durable tombstone, or key never written
				case !found && pendOK && pend == nil:
					// in-flight tombstone applied (torn batch committed)
				case !found && !wantOK && pendOK:
					// key existed only in the lost in-flight batch
				default:
					t.Fatalf("Get(%s) after torn write %d: found=%v got=%q, durable(%v)=%q pending(%v)=%q",
						key, k, found, got, wantOK, want, pendOK, pend)
				}
			}

			// A recovered engine must scrub clean and accept writes.
			rep, err := db2.Scrub()
			if err != nil {
				t.Fatalf("scrub after recovery: %v", err)
			}
			if rep.Corrupt() {
				t.Fatalf("scrub after recovery found corruption: %+v", rep.Findings)
			}
			if err := db2.Put([]byte("post-crash"), []byte("v")); err != nil {
				t.Fatalf("put after recovery: %v", err)
			}
		})
	}
}

// buildScrubDB fills a DB on a MemDevice fault stack and compacts so
// both the value log and on-device levels hold segments.
func buildScrubDB(t *testing.T) (*DB, *storage.FaultDevice, *storage.VerifyingDevice) {
	t.Helper()
	mem, err := storage.NewMemDevice(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	fault := storage.NewFaultDevice(mem)
	vdev := storage.AsVerifying(fault)
	db, err := New(Options{Device: vdev, NodeSize: 512, L0MaxKeys: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	// Enough keys for ten level segments at about 50 columnar leaf rows
	// per 512-byte node.
	for i := 0; i < 3500; i++ {
		val := make([]byte, 32)
		rng.Read(val)
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	return db, fault, vdev
}

// TestScrubDetectsAllInjectedCorruptions flips bits in a sample of log
// and index segments and requires the scrubber to report every single
// one (100% detection), with nothing else flagged.
func TestScrubDetectsAllInjectedCorruptions(t *testing.T) {
	db, fault, vdev := buildScrubDB(t)
	defer db.Close()

	clean, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if clean.Corrupt() {
		t.Fatalf("fresh DB scrubbed dirty: %+v", clean.Findings)
	}
	if clean.Scanned < 5 {
		t.Fatalf("scrub covered only %d segments; workload too small", clean.Scanned)
	}

	// Corrupt a spread of segments: log and every level, always inside
	// the CRC-covered payload.
	var targets []storage.SegmentID
	logSegs := db.Log().Segments()
	for i := 0; i < len(logSegs) && len(targets) < 5; i += 2 {
		targets = append(targets, logSegs[i])
	}
	for _, st := range db.Levels() {
		for i, seg := range st.Segments {
			if i%2 == 0 {
				targets = append(targets, seg)
			}
		}
	}
	if len(targets) < 10 {
		t.Fatalf("only %d corruption targets; workload too small", len(targets))
	}
	rng := rand.New(rand.NewSource(7))
	for _, seg := range targets {
		info, err := vdev.SegmentInfo(seg)
		if err != nil {
			t.Fatalf("segment %d info: %v", seg, err)
		}
		within := int64(rng.Intn(int(info.PayloadLen)))
		if err := fault.Corrupt(seg, within, 1<<rng.Intn(8)); err != nil {
			t.Fatal(err)
		}
		vdev.Invalidate(seg)
	}

	rep, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[storage.SegmentID]bool)
	for _, f := range rep.Findings {
		if !errors.Is(f.Err, storage.ErrChecksum) {
			t.Fatalf("finding for segment %d is not a checksum error: %v", f.Seg, f.Err)
		}
		found[f.Seg] = true
	}
	for _, seg := range targets {
		if !found[seg] {
			t.Fatalf("scrub missed injected corruption in segment %d (found %d of %d)",
				seg, len(found), len(targets))
		}
	}
	if len(found) != len(targets) {
		t.Fatalf("scrub flagged %d segments, injected %d", len(found), len(targets))
	}
	if len(rep.Findings) != len(targets) || rep.Scanned != clean.Scanned {
		t.Fatalf("scrub scanned %d segments with %d findings, want %d and %d",
			rep.Scanned, len(rep.Findings), clean.Scanned, len(targets))
	}
	if n := vdev.Corruptions(); n != uint64(len(targets)) {
		t.Fatalf("device counts %d corrupt segments, injected %d", n, len(targets))
	}

	// Reads through corrupt segments must fail typed, never serve bytes.
	gotErr := false
	for i := 0; i < 1500; i++ {
		_, _, err := db.Get([]byte(fmt.Sprintf("key-%05d", i)))
		if err != nil {
			if !errors.Is(err, storage.ErrChecksum) {
				t.Fatalf("Get error after corruption = %v, want ErrChecksum", err)
			}
			gotErr = true
			break
		}
	}
	if !gotErr {
		t.Fatal("no Get crossed a corrupt segment; expected at least one typed failure")
	}
	// A sticky failure read again is the same corrupt segment.
	if n := vdev.Corruptions(); n != uint64(len(targets)) {
		t.Fatalf("device counts %d corrupt segments after the gets, injected %d", n, len(targets))
	}
}

// TestScrubRequiresVerifier checks the typed error on a raw device.
func TestScrubRequiresVerifier(t *testing.T) {
	mem, err := storage.NewMemDevice(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(Options{Device: mem, NodeSize: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Scrub(); !errors.Is(err, ErrUnverifiedDevice) {
		t.Fatalf("Scrub on raw device = %v, want ErrUnverifiedDevice", err)
	}
	if _, _, err := Open(Options{Device: mem}); !errors.Is(err, ErrUnverifiedDevice) {
		t.Fatalf("Open on raw device = %v, want ErrUnverifiedDevice", err)
	}
}

// TestGetThroughMangledIndexNoPanics drives corrupt B+-tree blocks up
// through the engine read path on a raw (unverified) device: every Get
// and Scan must return a result or a typed error, never panic — the
// last line of defense when checksums are not in play.
func TestGetThroughMangledIndexNoPanics(t *testing.T) {
	mem, err := storage.NewMemDevice(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(Options{Device: mem, NodeSize: 512, L0MaxKeys: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 1200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("val-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}

	var idxSegs []storage.SegmentID
	for _, st := range db.Levels() {
		idxSegs = append(idxSegs, st.Segments...)
	}
	if len(idxSegs) == 0 {
		t.Fatal("no on-device levels after CompactAll")
	}

	rng := rand.New(rand.NewSource(0xFEED))
	geo := mem.Geometry()
	buf := make([]byte, 1)
	for round := 0; round < 150; round++ {
		seg := idxSegs[rng.Intn(len(idxSegs))]
		off := geo.Pack(seg, int64(rng.Intn(4096)))
		if err := mem.ReadAt(off, buf); err != nil {
			t.Fatal(err)
		}
		buf[0] ^= byte(1 << rng.Intn(8))
		if err := mem.WriteAt(off, buf); err != nil {
			t.Fatal(err)
		}

		key := []byte(fmt.Sprintf("key-%05d", rng.Intn(1300)))
		if val, found, err := db.Get(key); err == nil && found {
			// A successful read must carry plausible (self-identifying)
			// bytes: mangling must not splice values across keys.
			if !bytes.HasPrefix(val, []byte("val-")) {
				t.Fatalf("round %d: Get(%s) returned spliced value %q", round, key, val)
			}
		}
		n := 0
		_ = db.Scan(key, func(kv.Pair) bool {
			n++
			return n < 50
		})
	}
}
