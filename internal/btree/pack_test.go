package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tebis/internal/kv"
)

// builtSegments builds a tree over keys (every tombEvery-th one a
// tombstone, 0 for none) on a device of 16-node segments and returns
// every segment image it emits.
func builtSegments(t testing.TB, nodeSize int, keys [][]byte, tombEvery int) (images [][]byte) {
	t.Helper()
	dev := newDev(t, 16*int64(nodeSize))
	fl := newFakeLog(dev.Geometry())
	b, err := NewBuilder(dev, nodeSize, func(es EmittedSegment) error {
		images = append(images, es.Data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := b.Add(k, fl.add(k), tombEvery > 0 && i%tombEvery == 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	return images
}

// builtPages is builtSegments cut into node blocks.
func builtPages(t testing.TB, nodeSize int, keys [][]byte, tombEvery int) (pages [][]byte) {
	t.Helper()
	for _, img := range builtSegments(t, nodeSize, keys, tombEvery) {
		for off := 0; off < len(img); off += nodeSize {
			pages = append(pages, img[off:off+nodeSize])
		}
	}
	return pages
}

// checkPackRoundTrip packs page behind a marker and, when accepted,
// unpacks it over a dirty block: the marker is untouched, the form is
// consumed whole and the block is page bit for bit.
func checkPackRoundTrip(t testing.TB, page []byte) (packed int, ok bool) {
	t.Helper()
	marker := []byte("kept")
	out, ok := PackLeaf(append([]byte(nil), marker...), page)
	if !bytes.HasPrefix(out, marker) {
		t.Fatalf("PackLeaf overwrote the bytes it appends to: %q", out[:len(marker)])
	}
	if !ok {
		if len(out) != len(marker) {
			t.Fatalf("refused page left %d bytes behind", len(out)-len(marker))
		}
		return 0, false
	}
	form := out[len(marker):]
	got := bytes.Repeat([]byte{0xEE}, len(page))
	n, err := UnpackLeaf(got, append(form, 0xAA, 0xBB)) // trailing bytes are the next item's
	if err != nil {
		t.Fatalf("UnpackLeaf of PackLeaf's output: %v", err)
	}
	if n != len(form) {
		t.Fatalf("UnpackLeaf took %d of a %d-byte form", n, len(form))
	}
	if !bytes.Equal(got, page) {
		t.Fatalf("leaf of %d entries did not round-trip bit for bit", leafCount(page))
	}
	return len(form), true
}

// TestPackLeafRoundTripsBuilderOutput: every leaf a Builder emits — full,
// partly filled, one entry, with tombstones, with keys that share a head
// and a tail or neither — packs and unpacks bit for bit at each node
// size, smaller than it went in; every index node is refused.
func TestPackLeafRoundTripsBuilderOutput(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	full := leafCount(builtPages(t, 512, sortedKeys(1000, "k%05d"), 0)[0])
	keySets := map[string][][]byte{
		"shared head":   sortedKeys(2000, "user-%08d"),
		"shared tail":   sortedKeys(2000, "%06d-x"),
		"short keys":    sortedKeys(500, "%03d"), // zero-padded prefix: a constant tail
		"nothing alike": randomKeySet(rnd, 1500),
		"one entry":     sortedKeys(1, "only-%d"),
		"one past full": sortedKeys(full+1, "k%05d"),
		"prefix ties":   sortedKeys(300, "sameprefix00-%05d"), // an empty middle column
	}
	for name, keys := range keySets {
		for _, nodeSize := range []int{512, 1024, 4096} {
			for _, tombEvery := range []int{0, 7} {
				t.Run(fmt.Sprintf("%s/%d/tomb%d", name, nodeSize, tombEvery), func(t *testing.T) {
					leaves, entries := 0, 0
					for _, page := range builtPages(t, nodeSize, keys, tombEvery) {
						packed, ok := checkPackRoundTrip(t, page)
						if ok != (page[0] == kindLeaf) {
							t.Fatalf("kind-%d node: accepted = %v", page[0], ok)
						}
						if !ok {
							continue
						}
						leaves++
						entries += leafCount(page)
						if used := leafSize(leafCount(page), int(page[3]), int(page[4])); packed >= used {
							t.Fatalf("leaf of %d entries in %d bytes packed to %d bytes", leafCount(page), used, packed)
						}
					}
					if entries != len(keys) {
						t.Fatalf("packed %d entries in %d leaves, built %d keys", entries, leaves, len(keys))
					}
				})
			}
		}
	}
}

// TestPackLeafReadsTheColumnsOffThePage pins what a leaf costs on the
// device and on the wire for the layout the columns exist for: sorted
// generated keys with a common head and tail and log-sized offsets.
func TestPackLeafReadsTheColumnsOffThePage(t *testing.T) {
	const nodeSize = 4096
	page := builtPages(t, nodeSize, sortedKeys(1000, "user%04d-tail"), 0)[0]
	// Keys "user0000-tai" … : head "user0" and tail "-tai" leave 3 key
	// bytes, so a row is 3 + 6 and 453 rows fill the block (194 entries
	// of 21 bytes did). On the wire fakeLog offsets (segment 10000 of
	// 64 KB) take 4 bytes: 7 a row.
	if n := leafCount(page); n != 453 || page[3] != 5 || page[4] != 4 {
		t.Fatalf("first leaf holds %d entries, head %d, tail %d; want 453, 5, 4", n, page[3], page[4])
	}
	packed, ok := checkPackRoundTrip(t, page)
	if want := packHdrSize + 9 + 453*7; !ok || packed != want {
		t.Fatalf("full leaf packed to %d bytes (accepted %v), want %d", packed, ok, want)
	}
}

// TestPackLeafRefusesWhatItCannotRebuild: a block is never fixed up to
// make it packable. Anything a leaf rebuilt from columns would not
// reproduce — a set reserved byte, padding that is not zero, a count the
// block cannot hold, another kind of node — is refused.
func TestPackLeafRefusesWhatItCannotRebuild(t *testing.T) {
	const nodeSize = 512
	leaf := builtPages(t, nodeSize, sortedKeys(10, "key-%02d"), 0)[0]
	if _, ok := checkPackRoundTrip(t, leaf); !ok {
		t.Fatal("seed leaf refused")
	}
	end := leafSize(leafCount(leaf), int(leaf[3]), int(leaf[4]))
	for name, mangle := range map[string]func(b []byte) []byte{
		"index node":          func(b []byte) []byte { b[0] = kindIndex; return b },
		"free block":          func(b []byte) []byte { b[0] = kindFree; return b },
		"21-byte-entry leaf":  func(b []byte) []byte { b[0] = 1; return b },
		"reserved byte":       func(b []byte) []byte { b[5] = 1; return b },
		"dirty padding":       func(b []byte) []byte { b[len(b)-1] = 1; return b },
		"byte after the rows": func(b []byte) []byte { b[end] = 1; return b },
		"no entries":          func(b []byte) []byte { b[1], b[2] = 0, 0; return b },
		"count past block":    func(b []byte) []byte { b[1], b[2] = 0xFF, 0xFF; return b },
		"head plus tail":      func(b []byte) []byte { b[3], b[4] = 7, 6; return b },
		"short block":         func(b []byte) []byte { return b[:nodeHdrSize-1] },
		"empty":               func(b []byte) []byte { return nil },
	} {
		if _, ok := checkPackRoundTrip(t, mangle(append([]byte(nil), leaf...))); ok {
			t.Errorf("%s: accepted", name)
		}
	}
	// The codec offers PackLeaf every page of a value-log segment, so a
	// refusal allocates nothing.
	for _, junk := range [][]byte{bytes.Repeat([]byte("value"), nodeSize/5), bytes.Repeat([]byte{kindLeaf, 0xFF}, nodeSize/2)} {
		if n := testing.AllocsPerRun(100, func() { PackLeaf(nil, junk) }); n != 0 {
			t.Errorf("refusing %q… allocated %v times", junk[:4], n)
		}
	}
}

// TestUnpackLeafRejectsHostileForms: a packed form is a remote peer's
// bytes; one that is cut short or names columns or counts no leaf has
// fails typed, before the block is touched.
func TestUnpackLeafRejectsHostileForms(t *testing.T) {
	const nodeSize = 512
	leaf := builtPages(t, nodeSize, sortedKeys(10, "key-%02d"), 3)[0]
	form, ok := PackLeaf(nil, leaf)
	if !ok {
		t.Fatal("seed leaf refused")
	}
	for name, mangle := range map[string]func(f []byte) []byte{
		"cut short":            func(f []byte) []byte { return f[:len(f)-1] },
		"header only":          func(f []byte) []byte { return f[:packHdrSize] },
		"empty":                func(f []byte) []byte { return nil },
		"no entries":           func(f []byte) []byte { f[0], f[1] = 0, 0; return f },
		"count past page":      func(f []byte) []byte { f[0], f[1] = 0xFF, 0; return f },
		"head past key":        func(f []byte) []byte { f[2] = 13; return f },
		"head plus tail":       func(f []byte) []byte { f[2], f[3] = 7, 6; return f },
		"width past field":     func(f []byte) []byte { f[4] = f[4]&packFlagsBit | (leafOffSize + 1); return f },
		"flag not a tombstone": func(f []byte) []byte { f[len(f)-1] = 2; return f },
		// One entry of an all-shared prefix whose 6-byte offset reaches
		// into the tombstone bit.
		"offset past 47 bits": func([]byte) []byte {
			return append([]byte{1, 0, kv.PrefixSize, 0, leafOffSize}, append(make([]byte, kv.PrefixSize), 0, 0, 0, 0, 0, 0x80)...)
		},
	} {
		page := bytes.Repeat([]byte{0xEE}, nodeSize)
		if _, err := UnpackLeaf(page, mangle(append([]byte(nil), form...))); !errors.Is(err, ErrCorruptNode) {
			t.Errorf("%s: UnpackLeaf = %v, want ErrCorruptNode", name, err)
		} else if !bytes.Equal(page, bytes.Repeat([]byte{0xEE}, nodeSize)) {
			t.Errorf("%s: rejected form wrote to the block", name)
		}
	}
	if _, err := UnpackLeaf(make([]byte, nodeHdrSize), form); !errors.Is(err, ErrCorruptNode) {
		t.Errorf("block too small for one entry: UnpackLeaf = %v, want ErrCorruptNode", err)
	}
}

// FuzzPackLeaf holds the pair's two contracts over arbitrary bytes: a
// block is refused or round-trips bit for bit, and packed bytes fail
// typed or rebuild a block PackLeaf accepts (and that round-trips in
// turn) — so whatever a hostile frame makes a backup unpack, the CRC
// over the image is checking bytes a real leaf could have produced, and
// neither side panics.
func FuzzPackLeaf(f *testing.F) {
	const nodeSize = 512
	rnd := rand.New(rand.NewSource(5))
	for _, keys := range [][][]byte{sortedKeys(200, "key-%04d"), randomKeySet(rnd, 60), sortedKeys(1, "%d"), sortedKeys(300, "sameprefix00-%05d")} {
		for _, page := range builtPages(f, nodeSize, keys, 5) {
			f.Add(page)
			if form, ok := PackLeaf(nil, page); ok {
				f.Add(form)
			}
		}
	}
	// Blocks a reader must refuse: columns wider than the prefix, rows
	// past the block, a reserved byte set.
	leaf := builtPages(f, nodeSize, sortedKeys(20, "key-%04d"), 3)[0]
	for _, mangle := range []func(b []byte){
		func(b []byte) { b[3], b[4] = 7, 6 },
		func(b []byte) { b[1], b[2] = 0xFF, 0 },
		func(b []byte) { b[6] = 1 },
	} {
		mangled := append([]byte(nil), leaf...)
		mangle(mangled)
		f.Add(mangled)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// As a node block, of whatever size the fuzzer made it.
		checkPackRoundTrip(t, data)

		// As a packed form, for a block of the seeds' size and for one
		// sized by the input.
		for _, size := range []int{nodeSize, len(data) * 3} {
			page := make([]byte, size)
			n, err := UnpackLeaf(page, data)
			if err != nil {
				if !errors.Is(err, ErrCorruptNode) {
					t.Fatalf("untyped UnpackLeaf error: %v", err)
				}
				continue
			}
			if n < packHdrSize || n > len(data) {
				t.Fatalf("UnpackLeaf took %d of %d bytes", n, len(data))
			}
			if _, ok := checkPackRoundTrip(t, page); !ok {
				t.Fatal("UnpackLeaf built a block PackLeaf refuses")
			}
		}
	})
}
