package integrity

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeTrailer: a verifier's first read of a segment decodes a
// trailer from device bytes, which may be anything — a torn write, a
// flipped bit, a log scan's padding. DecodeTrailer must never panic and
// must fail with one of its two errors. A trailer it accepts re-encodes
// to the same 16 bytes, and its payload fits the capacity of the
// segment size it was given.
func FuzzDecodeTrailer(f *testing.F) {
	good := make([]byte, TrailerSize)
	EncodeTrailer(good, Trailer{Kind: KindLog, PayloadLen: 4080, CRC: 0xDEADBEEF, Seq: 7})
	f.Add(good, int64(4096))
	f.Add(good, int64(0))    // no bound
	f.Add(good, int64(4095)) // payload one past the capacity
	f.Add(good[:TrailerSize-1], int64(4096))
	f.Add(make([]byte, TrailerSize), int64(4096)) // a fresh segment: no magic
	huge := append([]byte(nil), good...)
	huge[4], huge[5], huge[6], huge[7] = 0xFF, 0xFF, 0xFF, 0x02 // 16 MB payload, kind 2
	f.Add(huge, int64(1<<21))
	f.Add(append(append([]byte(nil), good...), 1, 2, 3), int64(8)) // a segment smaller than a trailer

	f.Fuzz(func(t *testing.T, p []byte, segSize int64) {
		tr, err := DecodeTrailer(p, segSize)
		if err != nil {
			if !errors.Is(err, ErrNoFrame) && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again := make([]byte, TrailerSize)
		EncodeTrailer(again, tr)
		if !bytes.Equal(again, p[:TrailerSize]) {
			t.Fatalf("trailer %+v re-encodes to %x, decoded from %x", tr, again, p[:TrailerSize])
		}
		if segSize > 0 && int64(tr.PayloadLen) > Capacity(segSize) {
			t.Fatalf("payload of %d bytes accepted for a %d-byte segment", tr.PayloadLen, segSize)
		}
	})
}
