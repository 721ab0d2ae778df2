package shipcodec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// randSegment builds a segment-like image: mostly structured, repetitive
// bytes (like B+-tree nodes with padded keys) with some random spans, so
// both compressible and incompressible paths are exercised.
func randSegment(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for off := 0; off < n; {
		span := 64 + rng.Intn(512)
		if off+span > n {
			span = n - off
		}
		switch rng.Intn(3) {
		case 0: // zero padding
		case 1: // repeated byte
			b := byte(rng.Intn(256))
			for i := 0; i < span; i++ {
				out[off+i] = b
			}
		default: // random bytes
			rng.Read(out[off : off+span])
		}
		off += span
	}
	return out
}

func TestShipCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, codec := range []Codec{None, Flate} {
		for i := 0; i < 50; i++ {
			raw := randSegment(rng, 1+rng.Intn(64<<10))
			frame, err := Encode(codec, raw)
			if err != nil {
				t.Fatalf("Encode(%v): %v", codec, err)
			}
			if len(frame) > len(raw)+MaxOverhead {
				t.Fatalf("frame %d bytes exceeds raw %d + MaxOverhead", len(frame), len(raw))
			}
			got, err := Decode(frame, nil, 0)
			if err != nil {
				t.Fatalf("Decode(%v): %v", codec, err)
			}
			if !bytes.Equal(got, raw) {
				t.Fatalf("codec %v round trip not byte-identical (%d bytes)", codec, len(raw))
			}
		}
	}
}

func TestShipCodecCompresses(t *testing.T) {
	raw := bytes.Repeat([]byte("tebis-index-leaf-0000000"), 1024)
	frame, err := Encode(Flate, raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) >= len(raw) {
		t.Fatalf("compressible image did not shrink: frame %d raw %d", len(frame), len(raw))
	}
}

// TestShipCodecCorruptFrames flips/truncates bytes everywhere and
// asserts decode returns a typed error and never panics or returns
// wrong bytes.
func TestShipCodecCorruptFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	raw := randSegment(rng, 16<<10)
	frame, err := Encode(Flate, raw)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), frame...)
		if trial%4 == 0 {
			mut = mut[:rng.Intn(len(mut))] // truncate
		} else {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		got, err := Decode(mut, nil, 0)
		if err == nil {
			if !bytes.Equal(got, raw) {
				t.Fatal("corrupt frame decoded to wrong bytes without error")
			}
			continue // flipped a byte that didn't matter? impossible here, but fine
		}
		if !isTyped(err) {
			t.Fatalf("untyped decode error: %v", err)
		}
	}
	// Short garbage must not panic either.
	for _, junk := range [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xFF}, HeaderSize-1)} {
		if _, err := Decode(junk, nil, 0); err == nil {
			t.Fatalf("junk frame %v decoded", junk)
		}
	}
}

func TestShipCodecUnknownCodec(t *testing.T) {
	if _, err := Encode(Codec(9), []byte("x")); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("Encode unknown codec: %v", err)
	}
	frame, err := Encode(None, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	frame[2] = 7 // codec byte
	if _, err := Decode(frame, nil, 0); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("Decode unknown codec byte: %v", err)
	}
}
