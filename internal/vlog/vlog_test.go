package vlog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

func newTestLog(t *testing.T, segSize int64) (*Log, *storage.MemDevice) {
	t.Helper()
	dev, err := storage.NewMemDevice(segSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	return l, dev
}

func TestAppendGetRoundTrip(t *testing.T) {
	l, _ := newTestLog(t, 4096)
	res, err := l.Append([]byte("alpha"), []byte("first value"), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sealed != nil {
		t.Fatal("first append should not seal")
	}
	pair, tomb, err := l.Get(res.Off)
	if err != nil {
		t.Fatal(err)
	}
	if tomb || string(pair.Key) != "alpha" || string(pair.Value) != "first value" {
		t.Fatalf("Get = %q/%q tomb=%v", pair.Key, pair.Value, tomb)
	}
	key, err := l.GetKey(res.Off)
	if err != nil || string(key) != "alpha" {
		t.Fatalf("GetKey = %q, %v", key, err)
	}
}

func TestTombstoneRoundTrip(t *testing.T) {
	l, _ := newTestLog(t, 4096)
	res, err := l.Append([]byte("deadkey"), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	pair, tomb, err := l.Get(res.Off)
	if err != nil {
		t.Fatal(err)
	}
	if !tomb || string(pair.Key) != "deadkey" || len(pair.Value) != 0 {
		t.Fatalf("tombstone Get = %q/%q tomb=%v", pair.Key, pair.Value, tomb)
	}
}

func TestSealOnOverflowAndDeviceReadback(t *testing.T) {
	l, dev := newTestLog(t, 512)
	var offs []storage.Offset
	var keys []string
	sealed := 0
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v := bytes.Repeat([]byte{byte(i)}, 40)
		res, err := l.Append([]byte(k), v, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sealed != nil {
			sealed++
			if res.Sealed.Len != 512 {
				t.Fatalf("sealed image len = %d", res.Sealed.Len)
			}
		}
		offs = append(offs, res.Off)
		keys = append(keys, k)
	}
	if sealed == 0 {
		t.Fatal("expected at least one sealed tail")
	}
	if got := len(l.Segments()); got != sealed {
		t.Fatalf("Segments = %d, want %d", got, sealed)
	}
	// Every record must read back, whether from device or tail.
	for i, off := range offs {
		pair, _, err := l.Get(off)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if string(pair.Key) != keys[i] {
			t.Fatalf("Get(%d) key = %q, want %q", i, pair.Key, keys[i])
		}
	}
	if dev.Stats().BytesWritten == 0 {
		t.Fatal("sealing should write to the device")
	}
}

func TestRecordTooLarge(t *testing.T) {
	l, _ := newTestLog(t, 512)
	_, err := l.Append([]byte("k"), make([]byte, 600), false)
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	l, _ := newTestLog(t, 512)
	if _, err := l.Append(nil, []byte("v"), false); err == nil {
		t.Fatal("empty key should be rejected")
	}
}

func TestReplayFullLog(t *testing.T) {
	l, _ := newTestLog(t, 512)
	var want []string
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if _, err := l.Append([]byte(k), []byte("value"), false); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}
	var got []string
	err := l.Replay(storage.NilOffset, func(off storage.Offset, p kv.Pair, tomb bool) bool {
		got = append(got, string(p.Key))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestReplayFromWatermark(t *testing.T) {
	l, _ := newTestLog(t, 512)
	var offs []storage.Offset
	for i := 0; i < 60; i++ {
		res, err := l.Append([]byte(fmt.Sprintf("key-%03d", i)), []byte("value"), false)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, res.Off)
	}
	start := 25
	var got []string
	err := l.Replay(offs[start], func(off storage.Offset, p kv.Pair, tomb bool) bool {
		got = append(got, string(p.Key))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60-start {
		t.Fatalf("replayed %d records from watermark, want %d", len(got), 60-start)
	}
	if got[0] != "key-025" {
		t.Fatalf("first replayed = %q", got[0])
	}
}

func TestReplayEarlyStop(t *testing.T) {
	l, _ := newTestLog(t, 4096)
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("k%d", i)), []byte("v"), false); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := l.Replay(storage.NilOffset, func(storage.Offset, kv.Pair, bool) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replay visited %d records, want 3", n)
	}
}

// releasePrefix releases every sealed segment older than the one holding
// keep — a GC pass whose victims happen to be a log prefix — and returns
// how many segments it freed.
func releasePrefix(t *testing.T, l *Log, keep storage.Offset) int {
	t.Helper()
	keepSeg := l.Geometry().Segment(keep)
	var victims []storage.SegmentID
	for _, seg := range l.Segments() {
		if seg == keepSeg {
			break
		}
		victims = append(victims, seg)
	}
	freed, err := l.Release(victims)
	if err != nil {
		t.Fatalf("Release(%v): %v", victims, err)
	}
	return freed
}

func TestReleasePrefixFreesSegments(t *testing.T) {
	l, dev := newTestLog(t, 512)
	var offs []storage.Offset
	for i := 0; i < 100; i++ {
		res, err := l.Append([]byte(fmt.Sprintf("key-%03d", i)), []byte("0123456789"), false)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, res.Off)
	}
	before := dev.Stats().SegmentsLive
	freed := releasePrefix(t, l, offs[70])
	if freed == 0 {
		t.Fatal("expected the release to free segments")
	}
	if after := dev.Stats().SegmentsLive; after != before-uint64(freed) {
		t.Fatalf("live segments = %d, want %d", after, before-uint64(freed))
	}
	// Records after the released prefix must still be readable.
	if _, _, err := l.Get(offs[75]); err != nil {
		t.Fatalf("Get after release: %v", err)
	}
}

func TestSealPartialTail(t *testing.T) {
	l, _ := newTestLog(t, 4096)
	if s, err := l.Seal(); err != nil || s != nil {
		t.Fatalf("Seal of empty tail = %v, %v", s, err)
	}
	res, _ := l.Append([]byte("k"), []byte("v"), false)
	s, err := l.Seal()
	if err != nil || s == nil {
		t.Fatalf("Seal = %v, %v", s, err)
	}
	// The record must now read from the device.
	pair, _, err := l.Get(res.Off)
	if err != nil || string(pair.Key) != "k" {
		t.Fatalf("Get after seal = %q, %v", pair.Key, err)
	}
}

func TestUserBytesAccounting(t *testing.T) {
	l, _ := newTestLog(t, 4096)
	_, _ = l.Append([]byte("abc"), []byte("defgh"), false)
	if l.UserBytes() != 8 {
		t.Fatalf("UserBytes = %d, want 8", l.UserBytes())
	}
}

func TestAppendGetProperty(t *testing.T) {
	l, _ := newTestLog(t, 8192)
	f := func(key, val []byte) bool {
		if len(key) == 0 || len(key)+len(val)+8 > 8192 {
			return true
		}
		res, err := l.Append(key, val, false)
		if err != nil {
			return false
		}
		pair, tomb, err := l.Get(res.Off)
		if err != nil || tomb {
			return false
		}
		return bytes.Equal(pair.Key, key) && bytes.Equal(pair.Value, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWalkImageRobustness: WalkImage must terminate without panicking
// on arbitrary bytes (it parses replicated buffers).
func TestWalkImageRobustness(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		n := rnd.Intn(2048)
		data := make([]byte, n)
		rnd.Read(data)
		count := 0
		WalkImage(data, func(pos int64, key, value []byte, tomb bool, recLen int) bool {
			count++
			if pos < 0 || pos+int64(recLen) > int64(len(data)) {
				t.Fatalf("record out of bounds: pos=%d len=%d data=%d", pos, recLen, len(data))
			}
			return count < 10_000
		})
	}
	// ScanUsed agrees with WalkImage's consumed prefix on valid data.
	dev, _ := storage.NewMemDevice(4096, 0)
	defer dev.Close()
	l, _ := New(dev)
	for i := 0; i < 30; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("k%02d", i)), []byte("val"), false); err != nil {
			t.Fatal(err)
		}
	}
	_, tail, used := l.TailSnapshot()
	if got := ScanUsed(tail); got != used {
		t.Fatalf("ScanUsed = %d, want %d", got, used)
	}
}

func TestReplayFromTrimmedSegmentReturnsErrTrimmed(t *testing.T) {
	l, _ := newTestLog(t, 512)
	var offs []storage.Offset
	for i := 0; i < 100; i++ {
		res, err := l.Append([]byte(fmt.Sprintf("key-%03d", i)), []byte("0123456789"), false)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, res.Off)
	}
	// Release everything before record 70's segment; record 10 now
	// lives in a freed segment.
	releasePrefix(t, l, offs[70])

	n := 0
	err := l.Replay(offs[10], func(off storage.Offset, pair kv.Pair, tomb bool) bool {
		n++
		return true
	})
	if !errors.Is(err, ErrTrimmed) {
		t.Fatalf("Replay from released offset: err = %v, want ErrTrimmed", err)
	}
	if n != 0 {
		t.Fatalf("Replay invoked fn %d times despite ErrTrimmed", n)
	}

	// Replaying from a live offset still works after the release.
	n = 0
	if err := l.Replay(offs[70], func(off storage.Offset, pair kv.Pair, tomb bool) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("live replay visited %d records, want 30", n)
	}
	// And a full replay (NilOffset) covers exactly the surviving suffix.
	n = 0
	if err := l.Replay(storage.NilOffset, func(off storage.Offset, pair kv.Pair, tomb bool) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 || n > 100 {
		t.Fatalf("full replay after trim visited %d records", n)
	}
}

// TestAdoptAgainMovesToTheEnd: a segment adopted a second time — a
// backup's state transfer re-ships one a live flush adopted — takes the
// last place in the log, once, so replay walks it after the segments
// adopted before it. Its copy is written again only if it held no record
// (a flush of a buffer that lacked its first ones); a copy holding
// records is the sealed image already and is left as it is.
func TestAdoptAgainMovesToTheEnd(t *testing.T) {
	l, dev := newTestLog(t, 4096)
	image := func(kvs ...string) []byte {
		img := make([]byte, 4096)
		var recs []byte
		for i := 0; i < len(kvs); i += 2 {
			recs = AppendEncoded(recs, []byte(kvs[i]), []byte(kvs[i+1]), false)
		}
		copy(img, recs)
		return img
	}
	var segs []storage.SegmentID
	for range 3 {
		seg, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
	lacking := image("a", "zero", "b", "zero2")
	clear(lacking[:len(AppendEncoded(nil, []byte("a"), []byte("zero"), false))])
	for _, a := range []struct {
		seg storage.SegmentID
		img []byte
	}{
		{segs[0], lacking},
		{segs[1], image("k", "one")},
		{segs[2], image("k", "two")},
		{segs[0], image("a", "zero", "b", "zero2")},
		{segs[1], image("k", "changed")},
	} {
		if err := l.AdoptSegmentAs(a.seg, a.img); err != nil {
			t.Fatal(err)
		}
	}
	want := []storage.SegmentID{segs[2], segs[0], segs[1]}
	if got := l.Segments(); !slices.Equal(got, want) {
		t.Fatalf("segments after adopting %d and %d again = %v, want %v", segs[0], segs[1], got, want)
	}
	var vals []string
	if err := l.Replay(storage.NilOffset, func(_ storage.Offset, pair kv.Pair, _ bool) bool {
		vals = append(vals, string(pair.Value))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"two", "zero", "zero2", "one"}; !slices.Equal(vals, want) {
		t.Fatalf("replay walked %q, want %q", vals, want)
	}
}
