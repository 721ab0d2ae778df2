package shipcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// allocatedBy returns the fewest heap bytes one of a few calls of fn
// allocates. The codec state lives in sync.Pools, which a GC empties and
// the race detector drops entries from at random, so a single call may
// pay for a fresh compressor; the steady state is the cheapest call.
func allocatedBy(fn func()) uint64 {
	best := ^uint64(0)
	for try := 0; try < 8; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestShipCodecSteadyStateAllocatesTheFrameAndTheImage: with the flate
// state pooled, encoding a segment allocates the frame it returns and
// decoding one allocates the image it returns — each once, at its exact
// size — instead of a fresh 1.2 MB compressor and a doubling read
// buffer per segment.
func TestShipCodecSteadyStateAllocatesTheFrameAndTheImage(t *testing.T) {
	raw := randSegment(rand.New(rand.NewSource(3)), 256<<10)
	frame, err := Encode(Flate, raw)
	if err != nil {
		t.Fatal(err)
	}
	const slack = 16 << 10 // size-class rounding of the one large allocation
	if got := allocatedBy(func() { frame, err = Encode(Flate, raw) }); err != nil || got > uint64(len(frame))+slack {
		t.Fatalf("Encode of a %d-byte image into a %d-byte frame allocated %d bytes (err %v)", len(raw), len(frame), got, err)
	}
	var out []byte
	if got := allocatedBy(func() { out, err = Decode(frame, nil, 0) }); err != nil || got > uint64(len(raw))+slack {
		t.Fatalf("Decode of a %d-byte image allocated %d bytes (err %v)", len(raw), got, err)
	}
	if !bytes.Equal(out, raw) {
		t.Fatal("round trip through pooled codec state is not byte-identical")
	}
}

// TestShipCodecHostileRawLen: a frame header is remote-controlled, so
// the declared raw length must not size an allocation until the stream
// has produced that many bytes. A 4 GB claim over a few hundred payload
// bytes fails as corrupt having allocated a small multiple of the frame.
func TestShipCodecHostileRawLen(t *testing.T) {
	frame, err := Encode(Flate, bytes.Repeat([]byte("tebis"), 4096))
	if err != nil {
		t.Fatal(err)
	}
	for _, claim := range []uint32{1 << 20, 1<<32 - 1} {
		hostile := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(hostile[4:8], claim)
		var derr error
		got := allocatedBy(func() { _, derr = Decode(hostile, nil, 0) })
		if !errors.Is(derr, ErrCorrupt) {
			t.Fatalf("claim %d: Decode = %v, want ErrCorrupt", claim, derr)
		}
		// The stream really inflates to 20 KB, so the buffer may follow it
		// that far (doubling), but no further.
		if limit := uint64(4 * 20480); got > limit {
			t.Fatalf("claim %d over a %d-byte frame: Decode allocated %d bytes, limit %d", claim, len(hostile), got, limit)
		}
	}
	// A claim below the real size fails too, and early.
	short := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(short[4:8], 100)
	if _, err := Decode(short, nil, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short claim: Decode = %v, want ErrCorrupt", err)
	}
}
