package btree

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tebis/internal/integrity"
	"tebis/internal/storage"
)

// corruptReader wraps a fakeLog reader so lookups of mangled value-log
// offsets fail with an error instead of a test fatal: after byte
// mangling, any offset a descent produces may be garbage.
func (f *fakeLog) tolerantReader() FullKeyReader {
	return func(off storage.Offset) ([]byte, error) {
		k, ok := f.keys[off]
		if !ok {
			return nil, fmt.Errorf("unknown offset %#x", off)
		}
		return k, nil
	}
}

// TestMangledNodeBlocksNoPanic fuzzes the read path against corrupt
// node blocks: random bytes of the tree's segments are flipped between
// rounds (damage accumulates), and every Get / SeekGE / full scan must
// terminate without panicking — returning either a result or an error.
// Out-of-range decodes and pointer cycles are the failure modes this
// guards against (readNode header validation + the maxDepth bound).
func TestMangledNodeBlocksNoPanic(t *testing.T) {
	const (
		segSize  = 4096
		nodeSize = 512
		rounds   = 200
	)
	rng := rand.New(rand.NewSource(0xBADB10C5))
	dev := newDev(t, segSize)
	keys := sortedKeys(2000, "key-%05d")
	tree, fl, built := buildTree(t, dev, nodeSize, keys, nil)
	if len(built.Segments) < 3 {
		t.Fatalf("tree spans %d segments, want >= 3 for meaningful mangling", len(built.Segments))
	}
	reader := fl.tolerantReader()
	geo := dev.Geometry()

	probe := func(round int) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("round %d: read path panicked on mangled tree: %v", round, r)
			}
		}()
		key := []byte(fmt.Sprintf("key-%05d", rng.Intn(2100)))
		_, _, _, _ = tree.Get(key, reader)

		it, _ := seekGE(tree, key, reader)
		for steps := 0; it.Valid() && steps < 100; steps++ {
			_ = it.Entry()
			it.Next()
		}

		full := first(tree)
		for steps := 0; full.Valid() && steps < 5000; steps++ {
			_ = full.Entry()
			full.Next()
		}
	}

	buf := make([]byte, 1)
	for round := 0; round < rounds; round++ {
		// Flip one random byte in a random tree segment each round.
		seg := built.Segments[rng.Intn(len(built.Segments))]
		off := geo.Pack(seg, int64(rng.Intn(segSize)))
		if err := dev.ReadAt(off, buf); err != nil {
			t.Fatal(err)
		}
		buf[0] ^= byte(1 << rng.Intn(8))
		if err := dev.WriteAt(off, buf); err != nil {
			t.Fatal(err)
		}
		probe(round)
	}
}

// TestPointerCycleBounded builds a tiny tree whose root child pointer is
// redirected back at the root, and checks that descents report
// ErrCorruptNode instead of spinning forever.
func TestPointerCycleBounded(t *testing.T) {
	const (
		segSize  = 4096
		nodeSize = 512
	)
	dev := newDev(t, segSize)
	keys := sortedKeys(200, "key-%04d")
	tree, fl, built := buildTree(t, dev, nodeSize, keys, nil)

	// Read the root block, overwrite its leftmost child pointer with the
	// root's own offset, and write it back: a 1-node cycle.
	root := make([]byte, nodeSize)
	if err := dev.ReadAt(built.Root, root); err != nil {
		t.Fatal(err)
	}
	if root[0] != kindIndex {
		t.Skip("single-level tree; no index node to corrupt")
	}
	putU64(root[nodeHdrSize:], uint64(built.Root))
	if err := dev.WriteAt(built.Root, root); err != nil {
		t.Fatal(err)
	}

	// Keys routed to the leftmost child now descend the cycle.
	_, _, _, err := tree.Get(keys[0], fl.reader())
	if err == nil {
		t.Fatal("Get through a pointer cycle returned no error")
	}
	it := first(tree)
	for steps := 0; it.Valid() && steps < 100000; steps++ {
		it.Next()
	}
	if it.Err() == nil {
		t.Fatal("iterator through a pointer cycle finished without error")
	}
}

// headerMangles are the directly corrupted node headers every entry
// point must reject; FuzzIndexNode starts from them too.
var headerMangles = []struct {
	name   string
	mangle func(block []byte)
}{
	{"badKind", func(block []byte) { block[0] = 0x7F }},
	{"hugeLeafCount", func(block []byte) {
		block[0] = kindLeaf
		block[1] = 0xFF
		block[2] = 0xFF
	}},
	{"leafHeadPlusTail", func(block []byte) {
		block[0] = kindLeaf
		block[3], block[4] = 7, 6
	}},
	{"21ByteEntryLeaf", func(block []byte) { block[0] = 1 }},
}

// TestReadNodeRejectsBadHeaders checks the typed-error surface for
// directly corrupted node headers: bad kind bytes and impossible leaf
// counts must yield ErrCorruptNode from every entry point.
func TestReadNodeRejectsBadHeaders(t *testing.T) {
	const (
		segSize  = 4096
		nodeSize = 512
	)
	for _, tc := range headerMangles {
		t.Run(tc.name, func(t *testing.T) {
			dev := newDev(t, segSize)
			keys := sortedKeys(50, "key-%03d")
			tree, fl, built := buildTree(t, dev, nodeSize, keys, nil)

			block := make([]byte, nodeSize)
			if err := dev.ReadAt(built.Root, block); err != nil {
				t.Fatal(err)
			}
			tc.mangle(block)
			if err := dev.WriteAt(built.Root, block); err != nil {
				t.Fatal(err)
			}

			if _, _, _, err := tree.Get(keys[0], fl.reader()); err == nil {
				t.Fatal("Get on corrupt root returned no error")
			} else if !errors.Is(err, ErrCorruptNode) {
				t.Fatalf("Get error = %v, want ErrCorruptNode", err)
			}
			if _, err := seekGE(tree, keys[0], fl.reader()); err == nil {
				t.Fatal("SeekGE on corrupt root returned no error")
			}
			if it := first(tree); it.Err() == nil {
				t.Fatal("Iter on corrupt root returned no error")
			}
		})
	}
}

// TestCachedNodesFollowSegmentRepair is the node cache's invariant seen
// from a tree (a read never returns bytes of a torn segment): corrupt
// the medium under an index segment whose nodes are cached, Invalidate,
// and every lookup through it must fail with ErrChecksum instead of
// answering from the cached image; rewrite the segment with a repaired
// image that differs from the original, and lookups must answer from the
// repaired bytes.
func TestCachedNodesFollowSegmentRepair(t *testing.T) {
	const (
		segSize  = 4096
		nodeSize = 512
	)
	mem := newDev(t, segSize)
	dev := storage.AsVerifying(mem)
	keys := sortedKeys(600, "key-%05d")
	tree, fl, _ := buildTree(t, dev, nodeSize, keys, nil)
	reader := fl.reader()
	want := make(map[string]storage.Offset, len(keys))
	for _, k := range keys {
		off, _, found, err := tree.Get(k, reader)
		if err != nil || !found {
			t.Fatalf("warming Get(%q) = %v, %v", k, found, err)
		}
		want[string(k)] = off
	}

	// The leaf that holds keys[0], and the image of its segment.
	leafOff := tree.root
	for {
		var n node
		if err := tree.readNode(leafOff, &n); err != nil {
			t.Fatal(err)
		}
		if n.isLeaf() {
			break
		}
		leafOff = n.index.children[n.index.route(keys[0])]
	}
	geo := dev.Geometry()
	seg := geo.Segment(leafOff)
	info, err := dev.SegmentInfo(seg)
	if err != nil {
		t.Fatal(err)
	}
	image := make([]byte, info.PayloadLen)
	if err := dev.ReadAt(geo.Pack(seg, 0), image); err != nil {
		t.Fatal(err)
	}

	// Flip a bit of the first leaf entry's value offset on the raw
	// medium, below the verifier.
	l, err := leafOf(image[geo.Within(leafOff):][:nodeSize])
	if err != nil {
		t.Fatal(err)
	}
	entry := geo.Within(leafOff) + int64(nodeHdrSize+len(l.head)+len(l.tail)+l.mid)
	if err := mem.WriteAt(geo.Pack(seg, entry), []byte{image[entry] ^ 0x10}); err != nil {
		t.Fatal(err)
	}
	dev.Invalidate(seg)
	if _, _, _, err := tree.Get(keys[0], reader); !errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("Get through a corrupt, invalidated segment = %v, want ErrChecksum", err)
	}
	if _, err := seekGE(tree, keys[0], reader); !errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("SeekGE through a corrupt, invalidated segment = %v, want ErrChecksum", err)
	}

	// Repair with an image whose first entry points at a new log offset.
	moved := fl.add(keys[0])
	putU48(image[entry:], uint64(moved))
	if err := dev.WriteFramedAt(geo.Pack(seg, 0), image, integrity.KindIndex); err != nil {
		t.Fatal(err)
	}
	want[string(keys[0])] = moved
	for _, k := range keys {
		off, _, found, err := tree.Get(k, reader)
		if err != nil || !found || off != want[string(k)] {
			t.Fatalf("Get(%q) after repair = %#x, %v, %v; want %#x", k, off, found, err, want[string(k)])
		}
	}
	it, err := seekGE(tree, keys[0], reader)
	if err != nil || !it.Valid() || it.Entry().ValueOff != moved {
		t.Fatalf("SeekGE after repair: err %v, valid %v", err, it.Valid())
	}
}

// FuzzIndexNode feeds arbitrary bytes to the node decoder as the root of
// a one-node tree. A decoded node is shared by every reader for as long
// as it stays cached, so whatever readNode accepts must be safe to route
// and search: no entry point may panic, and an accepted index node must
// keep its pivots and children consistent.
func FuzzIndexNode(f *testing.F) {
	const (
		segSize  = 4096
		nodeSize = 512
	)
	// Seeds: the root and first leaf of a real two-level tree, the
	// header mangles of TestReadNodeRejectsBadHeaders applied to each,
	// and the root with its leftmost child redirected at itself
	// (TestPointerCycleBounded).
	dev := newDev(f, segSize)
	keys := sortedKeys(200, "key-%04d")
	tree, _, built := buildTree(f, dev, nodeSize, keys, nil)
	var root, leaf node
	if err := tree.readNode(built.Root, &root); err != nil || root.isLeaf() {
		f.Fatalf("seed tree root: leaf or unreadable (%v)", err)
	}
	if err := tree.readNode(root.index.children[0], &leaf); err != nil {
		f.Fatal(err)
	}
	for _, block := range [][]byte{root.block, leaf.block} {
		f.Add(block, keys[0])
		f.Add(block, keys[len(keys)-1])
		for _, m := range headerMangles {
			mangled := append([]byte(nil), block...)
			m.mangle(mangled)
			f.Add(mangled, keys[0])
		}
	}
	cycle := append([]byte(nil), root.block...)
	putU64(cycle[nodeHdrSize:], uint64(dev.Geometry().Pack(1, 0)))
	f.Add(cycle, keys[0])
	// A leaf with a reserved byte set, and one whose rows end exactly at
	// the block's end.
	reserved := append([]byte(nil), leaf.block...)
	reserved[7] = 0xA5
	f.Add(reserved, keys[0])
	edge := append([]byte(nil), leaf.block...)
	edge[1], edge[2] = byte((nodeSize-nodeHdrSize-int(edge[3])-int(edge[4]))/(leaf.leaf.mid+leafOffSize)), 0
	f.Add(edge, keys[len(keys)/2])

	f.Fuzz(func(t *testing.T, block, key []byte) {
		if len(block) > nodeSize {
			block = block[:nodeSize]
		}
		dev := newDev(t, segSize)
		seg, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		rootOff := dev.Geometry().Pack(seg, 0)
		if err := dev.WriteAt(rootOff, block); err != nil {
			t.Fatal(err)
		}
		tree := NewTree(dev, nodeSize, rootOff)
		var n node
		if err := tree.readNode(rootOff, &n); err == nil && !n.isLeaf() {
			if len(n.index.children) != len(n.index.pivots)+1 {
				t.Fatalf("%d children for %d pivots", len(n.index.children), len(n.index.pivots))
			}
			if c := n.index.route(key); c < 0 || c >= len(n.index.children) {
				t.Fatalf("route = %d of %d children", c, len(n.index.children))
			}
		}
		// Any value-log offset a mangled leaf yields resolves to the
		// search key, so the tie-break path runs too.
		reader := func(storage.Offset) ([]byte, error) { return key, nil }
		for i := 0; i < 2; i++ { // the second round walks the cached node
			_, _, _, _ = tree.Get(key, reader)
			it, _ := seekGE(tree, key, reader)
			for steps := 0; it.Valid() && steps < 64; steps++ {
				_ = it.Entry()
				it.Next()
			}
		}
		full := first(tree)
		for steps := 0; full.Valid() && steps < 64; steps++ {
			_ = full.Entry()
			full.Next()
		}
	})
}
