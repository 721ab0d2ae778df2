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

func TestShipCodecDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const pageSize = 512
	for i := 0; i < 50; i++ {
		base := randSegment(rng, pageSize*(4+rng.Intn(60)))
		// Mutate a handful of pages, and sometimes grow or shrink.
		raw := append([]byte(nil), base...)
		switch rng.Intn(3) {
		case 0:
			raw = raw[:len(raw)-rng.Intn(pageSize*2)]
		case 1:
			raw = append(raw, randSegment(rng, rng.Intn(pageSize*3))...)
		}
		for m := 0; m < 1+rng.Intn(4) && len(raw) > 0; m++ {
			raw[rng.Intn(len(raw))] ^= 0xA5
		}
		frame, ok, err := EncodeDelta(Flate, raw, base, pageSize)
		if err != nil {
			t.Fatalf("EncodeDelta: %v", err)
		}
		if !ok {
			// Legitimate when the mutation touched most pages; ship full.
			continue
		}
		got, err := Decode(frame, base, pageSize)
		if err != nil {
			t.Fatalf("Decode(delta): %v", err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("delta round trip not byte-identical (raw %d base %d)", len(raw), len(base))
		}
	}
}

// TestDeltaCanWinNeverHidesADelta: page sums may only rule a base out
// when EncodeDelta against it would have been refused anyway — over
// images that share whole pages, none, a shifted copy, a longer or
// shorter base and a short final page — and they do rule out a base
// that shares nothing.
func TestDeltaCanWinNeverHidesADelta(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const pageSize = 512
	ruledOut := 0
	for i := 0; i < 200; i++ {
		base := randSegment(rng, pageSize*(1+rng.Intn(40)))
		raw := append([]byte(nil), base...)
		switch rng.Intn(5) {
		case 0: // a few pages touched
			for m := 0; m < 1+rng.Intn(4); m++ {
				raw[rng.Intn(len(raw))] ^= 0xA5
			}
		case 1: // every page touched
			for off := 0; off < len(raw); off += pageSize {
				raw[off+rng.Intn(pageSize)] ^= 0x5A
			}
		case 2: // shifted: same bytes, no page in place
			raw = append(randSegment(rng, 1+rng.Intn(pageSize-1)), raw...)
			raw = raw[:len(raw)/pageSize*pageSize]
			for off := 0; off < len(raw); off += pageSize {
				raw[off] ^= 0x01 // break the zero and repeated-byte spans a shift maps onto themselves
			}
		case 3: // longer than the base, then cut to a short final page
			raw = append(raw, randSegment(rng, pageSize*(1+rng.Intn(3)))...)
			raw = raw[:len(raw)-rng.Intn(pageSize)]
		case 4: // shorter than the base
			raw = raw[:len(raw)-rng.Intn(len(raw))]
		}
		_, ok, err := EncodeDelta(Flate, raw, base, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		canWin := SumPages(raw, pageSize).DeltaCanWin(SumPages(base, pageSize))
		if ok && !canWin {
			t.Fatalf("case %d: page sums rule out a base EncodeDelta wins against (raw %d, base %d bytes)", i, len(raw), len(base))
		}
		if !canWin {
			ruledOut++
		}
		if !SumPages(raw, pageSize).DeltaCanWin(PageSums{}) {
			t.Fatal("an unsummed base was ruled out")
		}
	}
	if ruledOut < 20 {
		t.Fatalf("page sums ruled out %d of 200 bases; the cases that share no page should all be", ruledOut)
	}
}

func TestShipCodecDeltaIsSmall(t *testing.T) {
	base := bytes.Repeat([]byte{0x42}, 64<<10)
	raw := append([]byte(nil), base...)
	raw[100] ^= 1 // one changed page
	frame, ok, err := EncodeDelta(Flate, raw, base, 4096)
	if err != nil || !ok {
		t.Fatalf("EncodeDelta: ok=%v err=%v", ok, err)
	}
	if len(frame) > 4096+MaxOverhead+64 {
		t.Fatalf("one-page delta is %d bytes", len(frame))
	}
}

func TestShipCodecDeltaNeedsBase(t *testing.T) {
	base := bytes.Repeat([]byte{7}, 8192)
	raw := append([]byte(nil), base...)
	raw[0] = 9
	frame, ok, err := EncodeDelta(Flate, raw, base, 4096)
	if err != nil || !ok {
		t.Fatalf("EncodeDelta: ok=%v err=%v", ok, err)
	}
	if _, err := Decode(frame, nil, 4096); !errors.Is(err, ErrNeedBase) {
		t.Fatalf("Decode without base: %v, want ErrNeedBase", err)
	}
}

func TestShipCodecDeltaBaseMismatch(t *testing.T) {
	base := bytes.Repeat([]byte{7}, 8192)
	raw := append([]byte(nil), base...)
	raw[0] = 9
	frame, ok, err := EncodeDelta(Flate, raw, base, 4096)
	if err != nil || !ok {
		t.Fatalf("EncodeDelta: ok=%v err=%v", ok, err)
	}
	wrong := append([]byte(nil), base...)
	wrong[5000] ^= 0xFF // differs on a page the patch does not carry
	if _, err := Decode(frame, wrong, 4096); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode over mismatched base: %v, want ErrCorrupt", err)
	}
}

// TestShipCodecCorruptFrames flips/truncates bytes everywhere and
// asserts decode returns a typed error and never panics or returns
// wrong bytes.
func TestShipCodecCorruptFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	raw := randSegment(rng, 16<<10)
	base := append([]byte(nil), raw...)
	base[9000] ^= 0x5A
	full, err := Encode(Flate, raw)
	if err != nil {
		t.Fatal(err)
	}
	delta, ok, err := EncodeDelta(Flate, raw, base, 4096)
	if err != nil || !ok {
		t.Fatalf("EncodeDelta: ok=%v err=%v", ok, err)
	}
	for name, frame := range map[string][]byte{"full": full, "delta": delta} {
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), frame...)
			if trial%4 == 0 {
				mut = mut[:rng.Intn(len(mut))] // truncate
			} else {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
			got, err := Decode(mut, base, 4096)
			if err == nil {
				if !bytes.Equal(got, raw) {
					t.Fatalf("%s: corrupt frame decoded to wrong bytes without error", name)
				}
				continue // flipped a byte that didn't matter? impossible here, but fine
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnknownCodec) && !errors.Is(err, ErrNeedBase) {
				t.Fatalf("%s: untyped decode error: %v", name, err)
			}
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
