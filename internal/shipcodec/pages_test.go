package shipcodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tebis/internal/btree"
	"tebis/internal/kv"
	"tebis/internal/storage"
	"tebis/internal/vlog"
	"tebis/internal/ycsb"
)

const testSegSize = 256 << 10

// ycsbKeys returns the benchmark's first n keys (8 hashed bytes, then
// the record number in 16 digits), sorted.
func ycsbKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = ycsb.Key(uint64(i))
	}
	sort.Slice(keys, func(i, j int) bool { return kv.Compare(keys[i], keys[j]) < 0 })
	return keys
}

// indexImages builds a tree over the sorted keys with a real Builder and
// returns every segment image it emits, each holding leaves, index
// nodes or both. Offsets are where the records would sit in a value log written
// in arrival order (rnd's), so they are log-sized and unsorted; every
// tombEvery-th entry is a tombstone (0 for none).
func indexImages(t testing.TB, nodeSize int, keys [][]byte, tombEvery int, rnd *rand.Rand) (images [][]byte) {
	t.Helper()
	dev, err := storage.NewMemDevice(testSegSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	b, err := btree.NewBuilder(dev, nodeSize, func(es btree.EmittedSegment) error {
		images = append(images, es.Data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	geo := dev.Geometry()
	const recordSize = 160
	perSeg := testSegSize / recordSize
	for i, slot := range rnd.Perm(len(keys)) {
		off := geo.Pack(storage.SegmentID(100+slot/perSeg), int64(slot%perSeg*recordSize))
		if err := b.Add(keys[i], off, tombEvery > 0 && i%tombEvery == 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	return images
}

// logImage is one sealed value-log segment of records whose values are
// cyclic letters like the benchmark's: what Sync pushes through the
// same Encode.
func logImage(t testing.TB) []byte {
	t.Helper()
	dev, err := storage.NewMemDevice(testSegSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	log, err := vlog.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 120)
	for i := uint64(0); ; i++ {
		for j := range value {
			value[j] = byte('a' + (i*7+uint64(j))%26)
		}
		res, err := log.Append(ycsb.Key(i), value, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sealed != nil {
			img := make([]byte, testSegSize)
			if err := log.ReadSegmentImage(res.Sealed.Seg, img); err != nil {
				t.Fatal(err)
			}
			return img
		}
	}
}

// isTyped reports whether err is one of the codec's two decode errors.
func isTyped(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrUnknownCodec)
}

// deflatedFrameLen is the size of the frame the codec built before
// pages were packed: the whole image through DEFLATE at BestSpeed,
// stored when that is no smaller. Tests compare against it.
func deflatedFrameLen(t testing.TB, raw []byte) int {
	t.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return HeaderSize + min(buf.Len(), len(raw))
}

// checkRoundTrip frames raw at pageSize and decodes it — with a page
// size argument that is deliberately not the encoder's: a full frame
// carries its own — to the identical bytes, inside MaxOverhead. The frame
// appended behind other bytes, as a request's fields, is the same frame.
func checkRoundTrip(t testing.TB, raw []byte, pageSize int) []byte {
	t.Helper()
	frame, err := AppendPages(nil, Flate, raw, pageSize)
	if err != nil {
		t.Fatalf("AppendPages(nil, %d bytes, page %d): %v", len(raw), pageSize, err)
	}
	fields := []byte("eighteen-byte head")
	if behind, err := AppendPages(slices.Clone(fields), Flate, raw, pageSize); err != nil || !bytes.Equal(behind, append(fields, frame...)) {
		t.Fatalf("the frame of a %d-byte image appended behind %d bytes is not the frame alone (%v)", len(raw), len(fields), err)
	}
	if len(frame) > len(raw)+MaxOverhead {
		t.Fatalf("frame of %d bytes for a %d-byte image exceeds MaxOverhead", len(frame), len(raw))
	}
	got, err := Decode(frame, nil, 64)
	if err != nil {
		t.Fatalf("Decode(%d-byte image, page %d): %v", len(raw), pageSize, err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatalf("%d-byte image at page size %d did not round-trip bit for bit", len(raw), pageSize)
	}
	return frame
}

// TestPageStreamRoundTripsBuilderImages: whatever a Builder emits —
// leaf segments with full, partly filled and one-entry leaves, with and
// without tombstones, index-node segments, keys with a shared head and
// tail or with nothing in common — and whatever else an image can be —
// leaves and index nodes interleaved, a short final page, a page size
// that is not the tree's — decodes to the identical bytes.
func TestPageStreamRoundTripsBuilderImages(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	random := make([][]byte, 3000)
	for i := range random {
		random[i] = make([]byte, 4+rnd.Intn(24))
		rnd.Read(random[i])
	}
	sort.Slice(random, func(i, j int) bool { return kv.Compare(random[i], random[j]) < 0 })
	keySets := map[string][][]byte{
		"ycsb":          ycsbKeys(3000),
		"nothing alike": random,
		"one entry":     ycsbKeys(1),
	}
	for name, keys := range keySets {
		for _, nodeSize := range []int{512, 1024, 4096} {
			for _, tombEvery := range []int{0, 5} {
				t.Run(fmt.Sprintf("%s/%d/tomb%d", name, nodeSize, tombEvery), func(t *testing.T) {
					images := indexImages(t, nodeSize, keys, tombEvery, rnd)
					var mixed []byte
					for _, img := range images {
						checkRoundTrip(t, img, nodeSize)
						checkRoundTrip(t, img, 4096)                           // not the tree's node size
						checkRoundTrip(t, img[:len(img)-nodeSize/3], nodeSize) // a short final page
						mixed = append(mixed, img[:nodeSize]...)
					}
					// One page of every segment: leaves and index nodes, run
					// after run of one page each, then a short tail.
					checkRoundTrip(t, append(mixed, "tail"...), nodeSize)
				})
			}
		}
	}
}

// TestPageStreamPacksIndexImages is the wire pin: the tree of 16 K
// sorted benchmark keys with log-sized offsets frames to at most 12.2
// bytes a key (12.15 when leaves were 21-byte entries on the device), so
// a packer that loses a column fails here and not in a benchmark three
// changes later. The device image is columnar already, so the frame is
// about 0.83 of it: packing narrows the offsets and drops the padding
// (DEFLATE alone, at ten times the CPU, reads about 0.80).
func TestPageStreamPacksIndexImages(t *testing.T) {
	const keys = 16 << 10
	images := indexImages(t, 4096, ycsbKeys(keys), 0, rand.New(rand.NewSource(32)))
	raw, framed, deflated := 0, 0, 0
	for _, img := range images {
		raw += len(img)
		framed += len(checkRoundTrip(t, img, 4096))
		deflated += deflatedFrameLen(t, img)
	}
	ratio, perKey := float64(framed)/float64(raw), float64(framed)/keys
	t.Logf("%d images, %d bytes: page stream %.3f of raw (%.2f B/key), DEFLATE alone %.3f", len(images), raw, ratio, perKey, float64(deflated)/float64(raw))
	if perKey > 12.2 || ratio > 0.85 {
		t.Fatalf("index images frame to %.2f bytes a key, %.3f of raw; want <= 12.2 and <= 0.85", perKey, ratio)
	}
}

// TestPageStreamDecodesTheDensestLeafInHeadroom: the densest leaf a
// Builder writes — every prefix the same, so the rows are offsets only,
// and offsets of one byte — packs to about a sixth of its page, inside
// decodeHeadroom, so even an image of nothing else decodes into one
// buffer sized up front and never takes the grow path.
func TestPageStreamDecodesTheDensestLeafInHeadroom(t *testing.T) {
	const nodeSize = 4096
	dev, err := storage.NewMemDevice(testSegSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	var raw []byte
	b, err := btree.NewBuilder(dev, nodeSize, func(es btree.EmittedSegment) error {
		for off := 0; off < len(es.Data); off += nodeSize {
			if page := es.Data[off : off+nodeSize]; btree.IsLeaf(page) {
				raw = append(raw, page...)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if err := b.Add([]byte(fmt.Sprintf("sameprefix00-%05d", i)), storage.Offset(1+i%255), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	frame := checkRoundTrip(t, raw, nodeSize)
	h, err := Peek(frame)
	if err != nil || h.Codec != codecPages {
		t.Fatalf("Peek = %+v, %v; want a page stream", h, err)
	}
	t.Logf("%d bytes of leaves frame to %d: %.1f× the payload", len(raw), len(frame), float64(len(raw))/float64(h.PayloadLen))
	if decodeHeadroom*int(h.PayloadLen)+HeaderSize < len(raw) {
		t.Fatalf("%d bytes of leaves from a %d-byte payload: past decodeHeadroom (%d×), so the decode grows", len(raw), h.PayloadLen, decodeHeadroom)
	}
}

// TestPageStreamLeavesLogSegmentsToDeflate: a value-log segment has no
// leaves to pack, so all of it is residue and its frame is the one
// DEFLATE alone built, give or take the stream's few bytes of framing.
func TestPageStreamLeavesLogSegmentsToDeflate(t *testing.T) {
	img := logImage(t)
	frame := checkRoundTrip(t, img, 4096)
	before := deflatedFrameLen(t, img)
	t.Logf("log segment of %d bytes: frame %d, DEFLATE alone %d", len(img), len(frame), before)
	if len(frame) > before+16 {
		t.Fatalf("log segment frames to %d bytes, DEFLATE alone to %d", len(frame), before)
	}
	if before > len(img)/2 {
		t.Fatalf("log image deflates to %d of %d bytes: not the benchmark's compressible values", before, len(img))
	}
}

// TestPageStreamRejectsMalformedStreams walks the structural checks a
// CRC never gets to run behind: each malformed stream fails ErrCorrupt.
func TestPageStreamRejectsMalformedStreams(t *testing.T) {
	images := indexImages(t, 512, ycsbKeys(400), 0, rand.New(rand.NewSource(33)))
	raw := append(append([]byte(nil), images[0][:2*512]...), images[len(images)-1][:512]...) // leaf, leaf, index node
	raw = append(raw, "short tail"...)
	frame := checkRoundTrip(t, raw, 512)
	h, err := Peek(frame)
	if err != nil || h.Codec != codecPages {
		t.Fatalf("Peek = %+v, %v; want a page stream", h, err)
	}
	const residueOffAt = HeaderSize + 2 // behind the two-byte uvarint of 512
	residueOff := binary.LittleEndian.Uint32(frame[residueOffAt:])
	for name, mangle := range map[string]func(f []byte) []byte{
		"page size zero":        func(f []byte) []byte { f[HeaderSize], f[HeaderSize+1] = 0x80, 0x00; return f },
		"page size huge":        func(f []byte) []byte { f[HeaderSize], f[HeaderSize+1] = 0xFF, 0xFF; return f },
		"residue before items":  func(f []byte) []byte { binary.LittleEndian.PutUint32(f[residueOffAt:], 3); return f },
		"residue past payload":  func(f []byte) []byte { binary.LittleEndian.PutUint32(f[residueOffAt:], 1<<20); return f },
		"residue swallows item": func(f []byte) []byte { binary.LittleEndian.PutUint32(f[residueOffAt:], residueOff-1); return f },
		"items swallow residue": func(f []byte) []byte { binary.LittleEndian.PutUint32(f[residueOffAt:], residueOff+1); return f },
		"one page too many":     func(f []byte) []byte { f[HeaderSize+int(residueOff)-1]++; return f },
		"one page too few":      func(f []byte) []byte { f[HeaderSize+int(residueOff)-1]--; return f },
		"raw length a page up":  func(f []byte) []byte { binary.LittleEndian.PutUint32(f[4:], uint32(len(raw)+512)); return f },
		"raw length down":       func(f []byte) []byte { binary.LittleEndian.PutUint32(f[4:], uint32(len(raw)-1)); return f },
		"header only":           func(f []byte) []byte { binary.LittleEndian.PutUint32(f[8:], 0); return f[:HeaderSize] },
	} {
		mut := mangle(append([]byte(nil), frame...))
		if got, err := Decode(mut, nil, 0); err == nil || !isTyped(err) {
			t.Errorf("%s: Decode = %d bytes, %v; want a typed error", name, len(got), err)
		}
	}
	// An older primary's page-delta frame set the flags byte and deflated
	// its patch stream under codec byte 1: the header alone refuses it.
	for name, tc := range map[string]struct {
		at   int
		want error
	}{
		"flags byte set": {3, ErrCorrupt},
		"codec byte 1":   {2, ErrUnknownCodec},
	} {
		mut := append([]byte(nil), frame...)
		mut[tc.at] = 1
		if _, err := Peek(mut); !errors.Is(err, tc.want) {
			t.Errorf("%s: Peek = %v, want %v", name, err, tc.want)
		}
		if got, err := Decode(mut, nil, 0); !errors.Is(err, tc.want) {
			t.Errorf("%s: Decode = %d bytes, %v; want %v", name, len(got), err, tc.want)
		}
	}
}
