package vlog

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

// appendWorkload fills a fresh log with n records of rng-chosen value
// sizes and returns the log, device, keys, and per-record offsets. The
// uneven record sizes move the segment boundaries around between seeds,
// so boundary-sensitive tests exercise different alignments.
func appendWorkload(t *testing.T, segSize int64, seed int64, n int) (*Log, *storage.MemDevice, []string, []storage.Offset) {
	t.Helper()
	l, dev := newTestLog(t, segSize)
	rnd := rand.New(rand.NewSource(seed))
	keys := make([]string, n)
	offs := make([]storage.Offset, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("key-%03d", i)
		val := strings.Repeat("v", 5+rnd.Intn(30))
		res, err := l.Append([]byte(keys[i]), []byte(val), false)
		if err != nil {
			t.Fatal(err)
		}
		offs[i] = res.Off
	}
	return l, dev, keys, offs
}

// TestTrimReplayBoundaryProperty exercises prefix Release+Replay at
// every record index adjacent to a segment boundary, across several
// workload shapes: releasing up to the first record of a segment, the
// last record of the previous segment, and one past the boundary must
// each preserve the exact surviving suffix, return ErrTrimmed for freed
// offsets, and keep every record of the keep segment readable (Release
// frees whole segments, so records before keep in the same segment
// survive).
func TestTrimReplayBoundaryProperty(t *testing.T) {
	const n = 100
	for seed := int64(1); seed <= 5; seed++ {
		// Probe one workload shape to find its boundary-adjacent indices.
		probe, _, _, probeOffs := appendWorkload(t, 512, seed, n)
		geo := probe.Geometry()
		var keeps []int
		for i := 1; i < n; i++ {
			if geo.Segment(probeOffs[i]) != geo.Segment(probeOffs[i-1]) {
				// First record of a segment, plus its off-by-one
				// neighbours on both sides.
				keeps = append(keeps, i-1, i)
				if i+1 < n {
					keeps = append(keeps, i+1)
				}
			}
		}
		if len(keeps) < 6 {
			t.Fatalf("seed %d: only %d boundary candidates; workload too small", seed, len(keeps))
		}

		for _, k := range keeps {
			l, _, keys, offs := appendWorkload(t, 512, seed, n)
			keepSeg := geo.Segment(offs[k])
			firstInSeg := k
			for firstInSeg > 0 && geo.Segment(offs[firstInSeg-1]) == keepSeg {
				firstInSeg--
			}

			freed := releasePrefix(t, l, offs[k])
			if firstInSeg > 0 && freed == 0 {
				t.Fatalf("seed %d keep %d: Release freed nothing with %d earlier records", seed, k, firstInSeg)
			}

			// Replay from the keep offset yields exactly records k..n-1.
			var got []string
			if err := l.Replay(offs[k], func(off storage.Offset, p kv.Pair, tomb bool) bool {
				got = append(got, string(p.Key))
				return true
			}); err != nil {
				t.Fatalf("seed %d keep %d: Replay(keep): %v", seed, k, err)
			}
			if len(got) != n-k {
				t.Fatalf("seed %d keep %d: Replay(keep) visited %d records, want %d", seed, k, len(got), n-k)
			}
			for i, key := range got {
				if key != keys[k+i] {
					t.Fatalf("seed %d keep %d: replay[%d] = %q, want %q", seed, k, i, key, keys[k+i])
				}
			}

			// A full replay covers the whole surviving keep segment —
			// including records before keep within it.
			got = got[:0]
			if err := l.Replay(storage.NilOffset, func(off storage.Offset, p kv.Pair, tomb bool) bool {
				got = append(got, string(p.Key))
				return true
			}); err != nil {
				t.Fatalf("seed %d keep %d: Replay(nil): %v", seed, k, err)
			}
			if len(got) != n-firstInSeg || got[0] != keys[firstInSeg] {
				t.Fatalf("seed %d keep %d: full replay = %d records starting %q, want %d starting %q",
					seed, k, len(got), got[0], n-firstInSeg, keys[firstInSeg])
			}

			// Every record of the keep segment and after still reads.
			for i := firstInSeg; i < n; i++ {
				pair, _, err := l.Get(offs[i])
				if err != nil || string(pair.Key) != keys[i] {
					t.Fatalf("seed %d keep %d: Get(%d) = %q, %v", seed, k, i, pair.Key, err)
				}
			}
			// Freed offsets replay as ErrTrimmed without invoking fn,
			// and read as ErrReclaimed.
			if firstInSeg > 0 {
				for _, i := range []int{0, firstInSeg / 2, firstInSeg - 1} {
					calls := 0
					err := l.Replay(offs[i], func(storage.Offset, kv.Pair, bool) bool {
						calls++
						return true
					})
					if !errors.Is(err, ErrTrimmed) {
						t.Fatalf("seed %d keep %d: Replay(freed %d) err = %v, want ErrTrimmed", seed, k, i, err)
					}
					if calls != 0 {
						t.Fatalf("seed %d keep %d: Replay(freed %d) invoked fn %d times", seed, k, i, calls)
					}
					if _, _, err := l.Get(offs[i]); !errors.Is(err, ErrReclaimed) {
						t.Fatalf("seed %d keep %d: Get(freed %d) err = %v, want ErrReclaimed", seed, k, i, err)
					}
				}
			}
		}
	}
}

// TestGetFreedOffsetReturnsErrReclaimed: after GC releases a segment,
// reads of offsets inside it must fail with a located ErrReclaimed —
// even once the device has recycled the segment for unrelated bytes.
// Serving the raw device read instead would silently return garbage.
func TestGetFreedOffsetReturnsErrReclaimed(t *testing.T) {
	l, dev, keys, offs := appendWorkload(t, 512, 42, 100)
	geo := l.Geometry()
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("workload sealed only %d segments", len(segs))
	}
	victim := segs[1] // mid-log: Release is not head-restricted
	var victimIdx []int
	for i, off := range offs {
		if geo.Segment(off) == victim {
			victimIdx = append(victimIdx, i)
		}
	}
	if len(victimIdx) == 0 {
		t.Fatal("no records mapped to the victim segment")
	}

	repBefore := l.SpaceReport()
	freed, err := l.Release([]storage.SegmentID{victim})
	if err != nil || freed != 1 {
		t.Fatalf("Release = %d, %v", freed, err)
	}

	for _, i := range victimIdx {
		_, _, err := l.Get(offs[i])
		if !errors.Is(err, ErrReclaimed) {
			t.Fatalf("Get(freed %d) err = %v, want ErrReclaimed", i, err)
		}
		// The error must locate the read, not just classify it.
		want := fmt.Sprintf("%#x", uint64(offs[i]))
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Get(freed %d) error %q does not name offset %s", i, err, want)
		}
		if _, err := l.GetKey(offs[i]); !errors.Is(err, ErrReclaimed) {
			t.Fatalf("GetKey(freed %d) err = %v, want ErrReclaimed", i, err)
		}
	}

	// Recycle the freed segment with garbage: MemDevice.Alloc reuses
	// freed IDs, so this is exactly the recycled-bytes hazard.
	reID, err := dev.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if reID != victim {
		t.Fatalf("device recycled segment %d, expected victim %d", reID, victim)
	}
	garbage := make([]byte, geo.SegmentSize())
	for i := range garbage {
		garbage[i] = 0xA5
	}
	if err := dev.WriteAt(geo.Pack(reID, 0), garbage); err != nil {
		t.Fatal(err)
	}
	for _, i := range victimIdx {
		if _, _, err := l.Get(offs[i]); !errors.Is(err, ErrReclaimed) {
			t.Fatalf("Get(recycled %d) err = %v, want ErrReclaimed (not recycled bytes)", i, err)
		}
	}

	// Ledger: the victim left the live set and its bytes moved to Trimmed.
	rep := l.SpaceReport()
	if len(rep.Segments) != len(repBefore.Segments)-1 {
		t.Fatalf("segments after release = %d, want %d", len(rep.Segments), len(repBefore.Segments)-1)
	}
	for _, s := range rep.Segments {
		if s.Seg == victim {
			t.Fatalf("victim %d still in space report", victim)
		}
	}
	if rep.Trimmed <= repBefore.Trimmed {
		t.Fatalf("Trimmed = %d, want > %d", rep.Trimmed, repBefore.Trimmed)
	}

	// Everything outside the victim still reads correctly.
	for i, off := range offs {
		if geo.Segment(off) == victim {
			continue
		}
		pair, _, err := l.Get(off)
		if err != nil || string(pair.Key) != keys[i] {
			t.Fatalf("Get(%d) after release = %q, %v", i, pair.Key, err)
		}
	}
}

// TestReleaseTailRefusedAndIdempotent: Release must refuse the live
// tail and skip segments that are unknown or already gone, so a
// crash-retried GC release pass is harmless.
func TestReleaseTailRefusedAndIdempotent(t *testing.T) {
	l, _, _, _ := appendWorkload(t, 512, 7, 60)
	if _, err := l.Release([]storage.SegmentID{l.TailSegment()}); err == nil {
		t.Fatal("Release of the live tail segment succeeded")
	}

	victim := l.Segments()[0]
	if freed, err := l.Release([]storage.SegmentID{victim}); err != nil || freed != 1 {
		t.Fatalf("Release = %d, %v", freed, err)
	}
	// Retry after a simulated crash: already-freed and never-allocated
	// segments are skipped, not errors.
	if freed, err := l.Release([]storage.SegmentID{victim, storage.SegmentID(9999)}); err != nil || freed != 0 {
		t.Fatalf("idempotent Release = %d, %v; want 0, nil", freed, err)
	}
}
