package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// builtPages builds a tree over keys (every tombEvery-th one a
// tombstone, 0 for none) and returns every emitted segment cut into node
// blocks.
func builtPages(t testing.TB, nodeSize int, keys [][]byte, tombEvery int) (pages [][]byte) {
	t.Helper()
	dev := newDev(t, 16*int64(nodeSize))
	fl := newFakeLog(dev.Geometry())
	b, err := NewBuilder(dev, nodeSize, func(es EmittedSegment) error {
		for off := 0; off < len(es.Data); off += nodeSize {
			pages = append(pages, es.Data[off:off+nodeSize])
		}
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
	keySets := map[string][][]byte{
		"shared head":   sortedKeys(2000, "user-%08d"),
		"shared tail":   sortedKeys(2000, "%06d-x"),
		"short keys":    sortedKeys(500, "%03d"), // zero-padded prefix: a constant tail
		"nothing alike": randomKeySet(rnd, 1500),
		"one entry":     sortedKeys(1, "only-%d"),
		"one past full": sortedKeys(leafCapacity(512)+1, "k%05d"),
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
						if packed >= nodeHdrSize+leafCount(page)*leafEntrySize {
							t.Fatalf("leaf of %d entries packed to %d bytes", leafCount(page), packed)
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

// TestPackLeafReadsTheColumnsOffThePage pins what the packed form costs
// on the layout it exists for: sorted generated keys with a common head
// and tail and log-sized offsets pack to under half the block.
func TestPackLeafReadsTheColumnsOffThePage(t *testing.T) {
	const nodeSize = 4096
	pages := builtPages(t, nodeSize, sortedKeys(leafCapacity(nodeSize), "user%04d-tail"), 0)
	packed, ok := checkPackRoundTrip(t, pages[0])
	// 194 keys "user0000-tai" … "user0193-tai": head "user0" and tail
	// "-tai" leave 3 key bytes, and fakeLog offsets (segment 10000 of
	// 64 KB) take 4 — 7 of an entry's 21 bytes.
	if want := packHdrSize + 9 + leafCapacity(nodeSize)*7; !ok || packed != want {
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
	end := nodeHdrSize + leafCount(leaf)*leafEntrySize
	for name, mangle := range map[string]func(b []byte) []byte{
		"index node":       func(b []byte) []byte { b[0] = kindIndex; return b },
		"free block":       func(b []byte) []byte { b[0] = kindFree; return b },
		"reserved byte":    func(b []byte) []byte { b[5] = 1; return b },
		"dirty padding":    func(b []byte) []byte { b[len(b)-1] = 1; return b },
		"byte after count": func(b []byte) []byte { b[end] = 1; return b },
		"no entries":       func(b []byte) []byte { b[1], b[2] = 0, 0; return b },
		"count past block": func(b []byte) []byte { b[1] = byte(leafCapacity(nodeSize) + 1); return b },
		"short block":      func(b []byte) []byte { return b[:nodeHdrSize-1] },
		"empty":            func(b []byte) []byte { return nil },
	} {
		if _, ok := checkPackRoundTrip(t, mangle(append([]byte(nil), leaf...))); ok {
			t.Errorf("%s: accepted", name)
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
		"cut short":       func(f []byte) []byte { return f[:len(f)-1] },
		"header only":     func(f []byte) []byte { return f[:packHdrSize] },
		"empty":           func(f []byte) []byte { return nil },
		"no entries":      func(f []byte) []byte { f[0], f[1] = 0, 0; return f },
		"count past page": func(f []byte) []byte { f[0] = byte(leafCapacity(nodeSize) + 1); return f },
		"head past key":   func(f []byte) []byte { f[2] = 13; return f },
		"head plus tail":  func(f []byte) []byte { f[2], f[3] = 7, 6; return f },
		"width past u64":  func(f []byte) []byte { f[4] = f[4]&packFlagsBit | 9; return f },
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
	for _, keys := range [][][]byte{sortedKeys(200, "key-%04d"), randomKeySet(rnd, 60), sortedKeys(1, "%d")} {
		for _, page := range builtPages(f, nodeSize, keys, 5) {
			f.Add(page)
			if form, ok := PackLeaf(nil, page); ok {
				f.Add(form)
			}
		}
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
