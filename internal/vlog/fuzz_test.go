package vlog

import (
	"bytes"
	"fmt"
	"testing"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

const fuzzSegSize = 512

func fuzzLog(t testing.TB) *Log {
	dev, err := storage.NewMemDevice(fuzzSegSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// fuzzSeedImage returns a real sealed segment — puts and tombstones
// behind short and long headers, keys of 127 and 128 bytes, and a record
// ending flush with the segment — and where its records start.
func fuzzSeedImage(f *testing.F) (image []byte, starts []int64) {
	const segSize = fuzzSegSize
	l := fuzzLog(f)
	add := func(key, value []byte, tomb bool) {
		res, err := l.Append(key, value, tomb)
		if err != nil || res.Sealed != nil {
			f.Fatalf("seed append: sealed=%v err=%v", res.Sealed, err)
		}
		starts = append(starts, res.TailPos)
	}
	add([]byte("k1"), bytes.Repeat([]byte("v"), 30), false)
	add([]byte("dead"), nil, true)
	add([]byte("sameprefix00-00001"), []byte("value"), false)
	add(bytes.Repeat([]byte("s"), 127), []byte("short"), false)
	add(bytes.Repeat([]byte("L"), 128), []byte("long"), false)
	add(bytes.Repeat([]byte("T"), 128), nil, true)
	used := int(l.Geometry().Within(l.Position()))
	add([]byte("last"), bytes.Repeat([]byte("z"), segSize-used-EncodedLen(4, 0)-4), false) // ends at segSize
	sealed, err := l.Seal()
	if err != nil || sealed == nil {
		f.Fatalf("seed seal: %v, %v", sealed, err)
	}
	image = make([]byte, segSize)
	if err := l.ReadSegmentImage(sealed.Seg, image); err != nil {
		f.Fatal(err)
	}
	return image, starts
}

// FuzzRecord: the record readers take an index entry's offset on trust
// and size their reads from the header they find there, so over an
// arbitrary segment image and an arbitrary offset into it none may
// panic, none may read (or allocate) past the segment, and — sharing
// one header decoder — Get, GetKey, RecordLen and the append readers
// behind them accept or refuse the same offsets and agree on the
// lengths. The append readers write nothing before len(dst), and a
// range of a value is that slice of what Get returns. The batch reader,
// given the offset between two records of the tail, reads what
// AppendRecord reads there or fails as it fails.
//
// The corpus is the seed image probed at every record start and one
// byte off it.
func FuzzRecord(f *testing.F) {
	const segSize = fuzzSegSize
	image, starts := fuzzSeedImage(f)
	for _, pos := range starts {
		f.Add(image, uint16(pos))
		f.Add(image, uint16(pos+1))
	}
	f.Add(image, uint16(segSize-HeaderSize))      // a long header flush with the end
	f.Add(image, uint16(segSize-shortHeaderSize)) // a short one
	f.Add(image, uint16(segSize-1))               // a header crossing it
	f.Add([]byte{}, uint16(0))                    // padding only

	f.Fuzz(func(t *testing.T, image []byte, within uint16) {
		l := fuzzLog(t)
		padded := make([]byte, segSize)
		copy(padded, image)
		seg, err := l.AdoptSegment(padded)
		if err != nil {
			t.Fatal(err)
		}
		pos := int(within) % segSize
		off := l.Geometry().Pack(seg, int64(pos))
		batchAgrees(t, l, off)

		n, lenErr := l.RecordLen(off)
		key, keyErr := l.GetKey(off)
		pair, tomb, getErr := l.Get(off)
		if (lenErr == nil) != (keyErr == nil) || (lenErr == nil) != (getErr == nil) {
			t.Fatalf("at %d: RecordLen err %v, GetKey err %v, Get err %v", pos, lenErr, keyErr, getErr)
		}
		if lenErr != nil {
			held := []byte("held")
			rec, _, recErr := l.AppendRecord(held, off)
			k, _, keyErr := l.AppendKey(held, off)
			if _, hdrErr := l.ReadHeader(off, nil); recErr == nil || keyErr == nil || hdrErr == nil || !bytes.Equal(rec, held) || !bytes.Equal(k, held) {
				t.Fatalf("at %d: RecordLen refused (%v), the append readers: %q, %v and %q, %v", pos, lenErr, rec, recErr, k, keyErr)
			}
			return
		}
		if pos+n > segSize || !bytes.Equal(padded[pos:pos+n], AppendEncoded(nil, pair.Key, pair.Value, tomb)) {
			t.Fatalf("at %d: RecordLen %d, Get read a %d+%d byte record that does not encode to the image, segment of %d", pos, n, len(pair.Key), len(pair.Value), segSize)
		}
		if len(key) == 0 || !bytes.Equal(key, pair.Key) {
			t.Fatalf("at %d: GetKey %q, Get key %q", pos, key, pair.Key)
		}
		if tomb && len(pair.Value) != 0 {
			t.Fatalf("at %d: tombstone with a %d byte value", pos, len(pair.Value))
		}
		body := append(append([]byte(nil), pair.Key...), pair.Value...)

		// The append readers, into a destination that already holds
		// something: with spare capacity (the header passes through it)
		// and without.
		for _, spare := range []int{0, 3, segSize} {
			held := []byte("held")
			dst := append(make([]byte, 0, len(held)+spare), held...)
			rec, h, err := l.AppendRecord(dst, off)
			if err != nil || !bytes.Equal(rec[:len(held)], held) || !bytes.Equal(rec[len(held):], body) {
				t.Fatalf("at %d, spare %d: AppendRecord = %q, %v", pos, spare, rec, err)
			}
			if h.Off() != off || h.RecLen() != n || h.KeyLen() != len(key) || h.ValLen() != len(pair.Value) || h.Tombstone() != tomb {
				t.Fatalf("at %d: header %+v, record of %d+%d bytes, tombstone %v", pos, h, len(key), len(pair.Value), tomb)
			}
			k, hk, err := l.AppendKey(dst, off)
			if err != nil || hk != h || !bytes.Equal(k[:len(held)], held) || !bytes.Equal(k[len(held):], key) {
				t.Fatalf("at %d, spare %d: AppendKey = %q, %+v, %v", pos, spare, k, hk, err)
			}
			// Every range of the value, clipped like a slice that
			// forgives its bounds — within's high bits pick it.
			from, span := int(within>>9)%(len(pair.Value)+2)-1, int(within>>11)%(len(pair.Value)+2)
			lo := min(max(from, 0), len(pair.Value))
			hi := min(lo+span, len(pair.Value))
			v, err := l.AppendValue(dst, h, from, span)
			if err != nil || !bytes.Equal(v[:len(held)], held) || !bytes.Equal(v[len(held):], pair.Value[lo:hi]) {
				t.Fatalf("at %d, spare %d: AppendValue(%d, %d) = %q, %v, want %q", pos, spare, from, span, v, err, pair.Value[lo:hi])
			}
		}
		if h, err := l.ReadHeader(off, nil); err != nil || h.RecLen() != n {
			t.Fatalf("at %d: ReadHeader without scratch = %+v, %v", pos, h, err)
		}
	})
}

// batchAgrees holds the batch reader to AppendRecord at off: with a
// record of the tail on either side, ReadHeaders and AppendBodies give
// the tail record, off's record and the tail record again, or the
// first tail record's header and AppendRecord's error.
func batchAgrees(t *testing.T, l *Log, off storage.Offset) {
	t.Helper()
	tail, err := l.Append([]byte("tailkey"), []byte("tail value"), false)
	if err != nil {
		t.Fatal(err)
	}
	tailRec, tailHdr, err := l.AppendRecord(nil, tail.Off)
	if err != nil {
		t.Fatal(err)
	}
	rec, h, recErr := l.AppendRecord(nil, off)
	var b Batch
	hdrs, err := l.ReadHeaders(&b, []storage.Offset{tail.Off, off, tail.Off})
	if recErr != nil {
		if len(hdrs) != 1 || hdrs[0] != tailHdr || fmt.Sprint(err) != fmt.Sprint(recErr) {
			t.Fatalf("at %#x: ReadHeaders = %d headers, %v; AppendRecord refused it: %v", off, len(hdrs), err, recErr)
		}
		return
	}
	if err != nil || len(hdrs) != 3 || hdrs[0] != tailHdr || hdrs[1] != h || hdrs[2] != tailHdr {
		t.Fatalf("at %#x: ReadHeaders = %+v, %v; ReadHeader %+v", off, hdrs, err, h)
	}
	got, err := l.AppendBodies(&b, []byte("held"), hdrs)
	want := append(append(append([]byte("held"), tailRec...), rec...), tailRec...)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("at %#x: AppendBodies = %q, %v, want %q", off, got, err, want)
	}
}

// FuzzWalk: the image walkers decode whatever a segment holds — a
// replicated RDMA buffer, a victim GC reads back, a log being replayed
// after a crash — so over an arbitrary image none may panic, ScanUsed
// is the sum of the record lengths WalkImage visits, the records are
// contiguous from 0, and — sharing the record readers' decoder — every
// record visited is the record Get reads at that position once the
// image is adopted as a sealed segment.
func FuzzWalk(f *testing.F) {
	image, _ := fuzzSeedImage(f)
	f.Add(image)
	f.Add(image[:100])                                                   // a record cut short
	f.Add(image[:len(image)-100])                                        // behind long headers
	f.Add([]byte{})                                                      // nothing
	f.Add([]byte{1, 0})                                                  // part of a short header
	f.Add([]byte{longFlag, 0, 0, 1, 0})                                  // part of a long one
	f.Add(append(AppendEncoded(nil, []byte("k"), nil, true), image...))  // a tombstone first
	f.Add(AppendEncoded(nil, bytes.Repeat([]byte("k"), 200), nil, true)) // a long one

	f.Fuzz(func(t *testing.T, image []byte) {
		if len(image) > fuzzSegSize {
			image = image[:fuzzSegSize]
		}
		l := fuzzLog(t)
		padded := make([]byte, fuzzSegSize)
		copy(padded, image)
		seg, err := l.AdoptSegment(padded)
		if err != nil {
			t.Fatal(err)
		}

		next := int64(0)
		WalkImage(image, func(pos int64, key, value []byte, tomb bool, recLen int) bool {
			if pos != next || len(key) == 0 || (tomb && len(value) != 0) {
				t.Fatalf("record at %d (expected at %d): %d+%d bytes, recLen %d, tombstone %v", pos, next, len(key), len(value), recLen, tomb)
			}
			next = pos + int64(recLen)
			if next > int64(len(image)) {
				t.Fatalf("record at %d ends at %d, past the %d byte image", pos, next, len(image))
			}
			if !bytes.Equal(image[pos:next], AppendEncoded(nil, key, value, tomb)) {
				t.Fatalf("record at %d: walked %q:%q (%v), which does not encode to its %d bytes", pos, key, value, tomb, recLen)
			}
			pair, gotTomb, err := l.Get(l.Geometry().Pack(seg, pos))
			if err != nil || gotTomb != tomb || !bytes.Equal(pair.Key, key) || !bytes.Equal(pair.Value, value) {
				t.Fatalf("record at %d: walked %q:%q (%v), Get read %q:%q (%v), %v", pos, key, value, tomb, pair.Key, pair.Value, gotTomb, err)
			}
			return true
		})
		if used := ScanUsed(image); used != next {
			t.Fatalf("ScanUsed = %d, WalkImage visited %d bytes of records", used, next)
		}

		// Replay from any record start is the same walk, by offset.
		l2 := fuzzLog(t)
		tail, err := l2.dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.AdoptTail(tail, image); err != nil {
			t.Fatal(err)
		}
		replayed := int64(0)
		if err := l2.Replay(storage.NilOffset, func(off storage.Offset, pair kv.Pair, tomb bool) bool {
			replayed = l2.Geometry().Within(off) + int64(EncodedLen(len(pair.Key), len(pair.Value)))
			return true
		}); err != nil || replayed != next {
			t.Fatalf("Replay walked to %d, WalkImage to %d, %v", replayed, next, err)
		}
	})
}
