package shipcodec

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzDecode drives the two decoders a frame can reach — page stream
// (and through it btree.UnpackLeaf) and stored — with arbitrary frames,
// and the encoder with arbitrary images. A frame is a remote peer's
// bytes: Decode must never panic, must fail with one of the codec's two
// typed errors, and must not let the header's claims size what it
// allocates. And whatever bytes go into Encode come back out of Decode,
// at the B+-tree's two usual page sizes.
func FuzzDecode(f *testing.F) {
	const pageSize = 512
	rnd := rand.New(rand.NewSource(41))
	images := indexImages(f, pageSize, ycsbKeys(600), 4, rnd)
	leaves, index := images[0][:8*pageSize], images[len(images)-1]
	mixed := append(append(append([]byte(nil), leaves[:2*pageSize]...), index[:pageSize]...), "short tail"...)
	seed := func(frame []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	// header rewrites a copy of a good frame's codec, flags and rawLen
	// bytes: what an older primary's delta frame, or a lying one, sends.
	header := func(frame []byte, codec, flags byte, rawLen uint32) []byte {
		frame = append([]byte(nil), frame...)
		frame[2], frame[3] = codec, flags
		binary.LittleEndian.PutUint32(frame[4:8], rawLen)
		return frame
	}
	packed := seed(AppendPages(nil, Flate, leaves, pageSize))
	for _, frame := range [][]byte{
		packed, // packed pages only
		seed(AppendPages(nil, Flate, mixed, pageSize)),                 // packed, residue, short tail
		seed(AppendPages(nil, Flate, index, pageSize)),                 // residue only
		seed(AppendPages(nil, None, leaves[:pageSize], pageSize)),      // stored
		seed(AppendPages(nil, Flate, randSegment(rnd, 700), pageSize)), // stored by fallback, or nearly
		header(packed, codecPages, 1, uint32(len(leaves))),             // delta flag on a page stream
		header(packed, 1, 1, uint32(len(leaves))),                      // an older primary's delta codec
		header(packed, codecPages, 0, 1<<32-1),                         // a 4 GB claim
	} {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:HeaderSize])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var out []byte
		var err error
		// What a frame can make Decode hold: DEFLATE yields at most 1032
		// bytes a byte and a packed leaf of 17 bytes one page of at most
		// maxPageSize, each behind a buffer that at most doubles. A claim
		// in the header adds nothing.
		limit := uint64(2*maxPageSize/17*len(data) + 1<<20)
		if got := allocated(func() { out, err = Decode(data, nil, 0) }); got > limit {
			t.Fatalf("Decode of a %d-byte frame allocated %d bytes", len(data), got)
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
