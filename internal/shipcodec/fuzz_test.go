package shipcodec

import (
	"math/rand"
	"testing"
)

// FuzzDecode drives the three decoders a frame can reach — page stream
// (and through it btree.UnpackLeaf), patch stream, stored — with
// arbitrary frames over an arbitrary base, and the encoder with
// arbitrary images. A frame is a remote peer's bytes: Decode must never
// panic, must fail with one of the codec's three typed errors, and must
// not let the header's claims size what it allocates. And whatever bytes
// go into Encode come back out of Decode, at the B+-tree's two usual page
// sizes.
func FuzzDecode(f *testing.F) {
	const pageSize = 512
	rnd := rand.New(rand.NewSource(41))
	images := indexImages(f, pageSize, ycsbKeys(600), 4, rnd)
	leaves, index := images[0][:8*pageSize], images[len(images)-1]
	mixed := append(append(append([]byte(nil), leaves[:2*pageSize]...), index[:pageSize]...), "short tail"...)
	base := append([]byte(nil), leaves...)
	base[3*pageSize+40] ^= 0x10 // one page differs: a delta wins
	seed := func(frame []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	delta, ok, err := EncodeDelta(Flate, leaves, base, pageSize)
	if !ok {
		f.Fatalf("seed delta refused (err %v)", err)
	}
	for _, frame := range [][]byte{
		seed(EncodePages(Flate, leaves, pageSize)),                // packed pages only
		seed(EncodePages(Flate, mixed, pageSize)),                 // packed, residue, short tail
		seed(EncodePages(Flate, index, pageSize)),                 // residue only
		seed(EncodePages(None, leaves[:pageSize], pageSize)),      // stored
		seed(EncodePages(Flate, randSegment(rnd, 700), pageSize)), // stored by fallback, or nearly
		seed(delta, err),
	} {
		f.Add(frame, base)
		f.Add(frame, []byte(nil)) // a delta without its base
		f.Add(frame[:len(frame)/2], base)
		f.Add(frame[:HeaderSize], base)
	}

	f.Fuzz(func(t *testing.T, data, base []byte) {
		if len(base) == 0 {
			base = nil
		}
		var out []byte
		var err error
		// What a frame can make Decode hold: DEFLATE yields at most 1032
		// bytes a byte and a packed leaf of 17 bytes one page of at most
		// maxPageSize, each behind a buffer that at most doubles, and a
		// delta its base besides. A claim in the header adds nothing.
		limit := uint64(2*maxPageSize/17*len(data) + 4*len(base) + 1<<20)
		if got := allocated(func() { out, err = Decode(data, base, pageSize) }); got > limit {
			t.Fatalf("Decode of a %d-byte frame over a %d-byte base allocated %d bytes", len(data), len(base), got)
		}
		if err != nil && !isTyped(err) {
			t.Fatalf("untyped decode error: %v", err)
		}
		if err == nil {
			if h, _ := Peek(data); int(h.RawLen) != len(out) {
				t.Fatalf("Decode returned %d bytes for a frame declaring %d", len(out), h.RawLen)
			}
		}
		checkRoundTrip(t, data, 512)
		checkRoundTrip(t, data, 4096)
	})
}
