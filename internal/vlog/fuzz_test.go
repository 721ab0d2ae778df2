package vlog

import (
	"bytes"
	"testing"

	"tebis/internal/storage"
)

// FuzzRecord: Get, GetKey and RecordLen take an index entry's offset on
// trust and size their reads from the header they find there, so over
// an arbitrary segment image and an arbitrary offset into it none may
// panic, none may read (or allocate) past the segment, and — sharing
// one header decoder — all three accept or refuse the same offsets and
// agree on the lengths.
//
// The corpus starts from a real sealed segment: puts, a tombstone and a
// record ending flush with the segment, probed at every record start
// and one byte off it.
func FuzzRecord(f *testing.F) {
	const segSize = 512
	open := func(t testing.TB) *Log {
		dev, err := storage.NewMemDevice(segSize, 0)
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

	l := open(f)
	var starts []int64
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
	used := int(l.Geometry().Within(l.Position()))
	add([]byte("last"), bytes.Repeat([]byte("z"), segSize-used-recHdrSize-4), false) // ends at segSize
	sealed, err := l.Seal()
	if err != nil || sealed == nil {
		f.Fatalf("seed seal: %v, %v", sealed, err)
	}
	image := make([]byte, segSize)
	if err := l.ReadSegmentImage(sealed.Seg, image); err != nil {
		f.Fatal(err)
	}
	for _, pos := range starts {
		f.Add(image, uint16(pos))
		f.Add(image, uint16(pos+1))
	}
	f.Add(image, uint16(segSize-recHdrSize)) // a header flush with the end
	f.Add(image, uint16(segSize-1))          // a header crossing it
	f.Add([]byte{}, uint16(0))               // padding only

	f.Fuzz(func(t *testing.T, image []byte, within uint16) {
		l := open(t)
		padded := make([]byte, segSize)
		copy(padded, image)
		seg, err := l.AdoptSegment(padded)
		if err != nil {
			t.Fatal(err)
		}
		pos := int(within) % segSize
		off := l.Geometry().Pack(seg, int64(pos))

		n, lenErr := l.RecordLen(off)
		key, keyErr := l.GetKey(off)
		pair, tomb, getErr := l.Get(off)
		if (lenErr == nil) != (keyErr == nil) || (lenErr == nil) != (getErr == nil) {
			t.Fatalf("at %d: RecordLen err %v, GetKey err %v, Get err %v", pos, lenErr, keyErr, getErr)
		}
		if lenErr != nil {
			return
		}
		if n != recHdrSize+len(pair.Key)+len(pair.Value) || pos+n > segSize {
			t.Fatalf("at %d: RecordLen %d, Get read a %d+%d byte record, segment of %d", pos, n, len(pair.Key), len(pair.Value), segSize)
		}
		if len(key) == 0 || !bytes.Equal(key, pair.Key) {
			t.Fatalf("at %d: GetKey %q, Get key %q", pos, key, pair.Key)
		}
		if tomb && len(pair.Value) != 0 {
			t.Fatalf("at %d: tombstone with a %d byte value", pos, len(pair.Value))
		}
		if body := padded[pos+recHdrSize : pos+n]; !bytes.Equal(body, append(append([]byte(nil), pair.Key...), pair.Value...)) {
			t.Fatalf("at %d: record bytes differ from the image", pos)
		}
	})
}
