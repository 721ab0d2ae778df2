package shipcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// allocated returns the heap bytes one call of fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocatedBy returns the fewest heap bytes one of a few calls of fn
// allocates. The codec state lives in sync.Pools, which a GC empties and
// the race detector drops entries from at random, so a single call may
// pay for a fresh compressor; the steady state is the cheapest call.
func allocatedBy(fn func()) uint64 {
	best := ^uint64(0)
	for try := 0; try < 8; try++ {
		best = min(best, allocated(fn))
	}
	return best
}

// TestShipCodecSteadyStateAllocatesTheFrameAndTheImage: encoding a
// segment allocates the one buffer the frame is built in — sized for the
// worst frame, a stored one, since the size is not known until the last
// page is packed — and decoding one allocates the image it returns, once,
// at its exact size, unless the frame is under an eighth of it
// (decodeHeadroom), where the buffer doubles behind the stream once more.
// Neither allocates per page, and the flate state an image with residue
// needs is pooled: no fresh 1.2 MB compressor per segment.
func TestShipCodecSteadyStateAllocatesTheFrameAndTheImage(t *testing.T) {
	leaves := indexImages(t, 4096, ycsbKeys(16<<10), 0, rand.New(rand.NewSource(3)))[0]
	for name, raw := range map[string][]byte{
		"leaf segment (packed)":   leaves,
		"log segment (residue)":   logImage(t),
		"random spans (residue)":  randSegment(rand.New(rand.NewSource(3)), 256<<10),
		"leaves then a short end": leaves[:len(leaves)-100],
	} {
		frame, err := AppendPages(nil, Flate, raw, 4096)
		if err != nil {
			t.Fatal(err)
		}
		const slack = 16 << 10 // size-class rounding of the one large allocation
		if got := allocatedBy(func() { frame, err = AppendPages(nil, Flate, raw, 4096) }); err != nil || got > uint64(HeaderSize+len(raw))+slack {
			t.Fatalf("%s: Encode of a %d-byte image into a %d-byte frame allocated %d bytes (err %v)", name, len(raw), len(frame), got, err)
		}
		var out []byte
		image := uint64(len(raw))
		if decodeHeadroom*len(frame) < len(raw) {
			image *= 2
		}
		if got := allocatedBy(func() { out, err = Decode(frame, nil, 0) }); err != nil || got > image+slack {
			t.Fatalf("%s: Decode of a %d-byte image allocated %d bytes (err %v)", name, len(raw), got, err)
		}
		if !bytes.Equal(out, raw) {
			t.Fatalf("%s: round trip through pooled codec state is not byte-identical", name)
		}
	}
}

// TestShipCodecHostileRawLen: a frame header is remote-controlled, so
// the declared raw length must not size an allocation until the stream
// has produced that many bytes. A 4 GB claim over a few packed pages, or
// over a few hundred bytes of residue, fails as corrupt having allocated
// a small multiple of the frame or of what the stream really holds.
func TestShipCodecHostileRawLen(t *testing.T) {
	leaves := indexImages(t, 4096, ycsbKeys(1000), 0, rand.New(rand.NewSource(4)))[0]
	for name, tc := range map[string]struct {
		raw   []byte
		limit func(frame []byte) uint64
	}{
		// Packed pages prove themselves a page at a time: the buffer never
		// gets past its first, headroom-sized allocation.
		"packed pages": {leaves[:4*4096], func(frame []byte) uint64 { return uint64((decodeHeadroom + 1) * len(frame)) }},
		// The residue really inflates to 20 KB, so the buffer may follow it
		// that far (doubling), but no further.
		"residue": {bytes.Repeat([]byte("tebis"), 4096), func([]byte) uint64 { return 4 * 20480 }},
	} {
		frame, err := AppendPages(nil, Flate, tc.raw, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if h, _ := Peek(frame); h.Codec != codecPages {
			t.Fatalf("%s: codec byte %d, want a page stream", name, h.Codec)
		}
		for _, claim := range []uint32{1 << 20, 1<<32 - 1} {
			hostile := append([]byte(nil), frame...)
			binary.LittleEndian.PutUint32(hostile[4:8], claim)
			var derr error
			got := allocatedBy(func() { _, derr = Decode(hostile, nil, 0) })
			if !errors.Is(derr, ErrCorrupt) {
				t.Fatalf("%s, claim %d: Decode = %v, want ErrCorrupt", name, claim, derr)
			}
			if limit := tc.limit(frame); got > limit {
				t.Fatalf("%s, claim %d over a %d-byte frame: Decode allocated %d bytes, limit %d", name, claim, len(hostile), got, limit)
			}
		}
		// A claim below the real size fails too, and early.
		short := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(short[4:8], 100)
		if _, err := Decode(short, nil, 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s, short claim: Decode = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestShipCodecHostileDeltaRawLen: an older primary's page-delta frame
// (codec byte 1, flags byte 1) claiming a 4 GB image is refused by its
// header, before the claim or the payload sizes anything.
func TestShipCodecHostileDeltaRawLen(t *testing.T) {
	frame, err := Encode(None, bytes.Repeat([]byte{7}, 8192))
	if err != nil {
		t.Fatal(err)
	}
	frame[2], frame[3] = 1, 1
	binary.LittleEndian.PutUint32(frame[4:8], 1<<32-1)
	var derr error
	got := allocatedBy(func() { _, derr = Decode(frame, nil, 0) })
	if !errors.Is(derr, ErrUnknownCodec) {
		t.Fatalf("Decode = %v, want ErrUnknownCodec", derr)
	}
	if got > 1024 {
		t.Fatalf("4 GB claim over a %d-byte delta frame allocated %d bytes", len(frame), got)
	}
}
