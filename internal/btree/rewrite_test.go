package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

// lazyMap mimics the backup's segment maps: it allocates a local segment
// on first reference to a primary segment, so forward references work.
type lazyMap struct {
	dev *storage.MemDevice
	m   map[storage.SegmentID]storage.SegmentID
	// forward counts resolutions that happened before the segment data
	// arrived (diagnostic only).
	resolved []storage.SegmentID
}

func newLazyMap(dev *storage.MemDevice) *lazyMap {
	return &lazyMap{dev: dev, m: map[storage.SegmentID]storage.SegmentID{}}
}

func (lm *lazyMap) mapper() SegmentMapper {
	return func(primary storage.SegmentID) (storage.SegmentID, error) {
		if local, ok := lm.m[primary]; ok {
			return local, nil
		}
		local, err := lm.dev.Alloc()
		if err != nil {
			return storage.NilSegment, err
		}
		lm.m[primary] = local
		lm.resolved = append(lm.resolved, primary)
		return local, nil
	}
}

// shiftMap renumbers value-log segments by a fixed delta (stands in for
// the backup's log segment map, which is maintained by log replication).
type shiftMap struct {
	delta storage.SegmentID
	seen  map[storage.SegmentID]bool
}

func (sm *shiftMap) mapper() SegmentMapper {
	return func(primary storage.SegmentID) (storage.SegmentID, error) {
		if sm.seen != nil {
			sm.seen[primary] = true
		}
		return primary + sm.delta, nil
	}
}

// TestRewriteRoundTrip is the core Send-Index invariant: ship every
// emitted segment to a second device, rewrite its pointers through the
// index and log maps, and verify the rewritten tree answers every lookup
// with the correctly rebased value offset.
func TestRewriteRoundTrip(t *testing.T) {
	const nodeSize = 512
	primary := newDev(t, 2048)
	backup := newDev(t, 2048)

	keys := sortedKeys(3000, "user%08d")
	fl := newFakeLog(primary.Geometry())

	im := newLazyMap(backup)
	logDelta := storage.SegmentID(5000)
	lm := &shiftMap{delta: logDelta, seen: map[storage.SegmentID]bool{}}

	var shipped int
	emit := func(es EmittedSegment) error {
		// Backup side: copy the image, rewrite, store at the mapped
		// local segment.
		data := append([]byte(nil), es.Data...)
		n, err := RewriteSegment(data, nodeSize, backup.Geometry(), im.mapper(), lm.mapper())
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("segment %d: no pointers rewritten", es.Seg)
		}
		local, err := im.mapper()(es.Seg)
		if err != nil {
			return err
		}
		if err := backup.WriteAt(backup.Geometry().Pack(local, 0), data); err != nil {
			return err
		}
		shipped++
		return nil
	}

	b, err := NewBuilder(primary, nodeSize, emit)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := b.Add(k, fl.add(k), false); err != nil {
			t.Fatal(err)
		}
	}
	built, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if shipped != len(built.Segments) {
		t.Fatalf("shipped %d segments, want %d", shipped, len(built.Segments))
	}

	// Translate the root through the index map (what the primary's
	// "compaction done" message triggers at the backup).
	geo := backup.Geometry()
	rootSeg, err := im.mapper()(geo.Segment(built.Root))
	if err != nil {
		t.Fatal(err)
	}
	backupRoot := geo.Rebase(built.Root, rootSeg)

	// The backup resolves full keys through its *own* log offsets.
	backupReader := func(off storage.Offset) ([]byte, error) {
		primOff := geo.Rebase(off, geo.Segment(off)-logDelta)
		return fl.reader()(primOff)
	}

	btree := NewTree(backup, nodeSize, backupRoot)
	for _, k := range keys {
		off, _, found, err := btree.Get(k, backupReader)
		if err != nil {
			t.Fatalf("backup Get(%q): %v", k, err)
		}
		if !found {
			t.Fatalf("backup Get(%q) not found", k)
		}
		full, err := backupReader(off)
		if err != nil || kv.Compare(full, k) != 0 {
			t.Fatalf("backup Get(%q) resolved to %q (%v)", k, full, err)
		}
	}

	// Every primary log segment referenced must have gone through the
	// log map.
	if len(lm.seen) == 0 {
		t.Fatal("log map never consulted")
	}

	// Iteration over the rewritten tree must return all keys in order.
	i := 0
	for it := first(btree); it.Valid(); it.Next() {
		full, err := backupReader(it.Entry().ValueOff)
		if err != nil {
			t.Fatal(err)
		}
		if kv.Compare(full, keys[i]) != 0 {
			t.Fatalf("backup iter[%d] = %q, want %q", i, full, keys[i])
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("backup iterated %d keys, want %d", i, len(keys))
	}
}

func TestRewriteRejectsUnalignedData(t *testing.T) {
	geo, _ := storage.NewGeometry(2048)
	if _, err := RewriteSegment(make([]byte, 100), 512, geo, nil, nil); err == nil {
		t.Fatal("unaligned data should fail")
	}
	if _, err := RewriteSegment(nil, 512, geo, nil, nil); err == nil {
		t.Fatal("empty data should fail")
	}
	// A node size below the builder's floor, zero among them, is refused
	// before it divides anything.
	for _, nodeSize := range []int{0, -512, 1, minNodeSize - 1} {
		if _, err := RewriteSegment(make([]byte, 512), nodeSize, geo, nil, nil); !errors.Is(err, ErrCorruptNode) {
			t.Fatalf("node size %d: RewriteSegment = %v, want ErrCorruptNode", nodeSize, err)
		}
	}
}

// TestRewriteRefusesOffsetsPastTheField: a log map that moves a value
// offset to 2⁴⁷ or beyond fails the rewrite with ErrOffsetRange instead
// of wrapping the pointer into the tombstone bit.
func TestRewriteRefusesOffsetsPastTheField(t *testing.T) {
	img := builtSegments(t, 256, sortedKeys(20, "key-%02d"), 0)[0]
	geo, _ := storage.NewGeometry(rewriteFuzzSegSize)
	identity := func(s storage.SegmentID) (storage.SegmentID, error) { return s, nil }
	high := func(s storage.SegmentID) (storage.SegmentID, error) { return s | 1<<31, nil }
	if _, err := RewriteSegment(append([]byte(nil), img...), 256, geo, identity, high); !errors.Is(err, ErrOffsetRange) {
		t.Fatalf("RewriteSegment to segment 2^31 of 64 KB = %v, want ErrOffsetRange", err)
	}
	if _, err := RewriteSegment(append([]byte(nil), img...), 256, geo, high, identity); err != nil {
		t.Fatalf("index pointers to segment 2^31: %v", err)
	}
}

// nodeKinds is the kind byte of each node block in seg.
func nodeKinds(seg []byte, nodeSize int) []byte {
	kinds := make([]byte, 0, len(seg)/nodeSize)
	for base := 0; base < len(seg); base += nodeSize {
		kinds = append(kinds, seg[base])
	}
	return kinds
}

// rewriteFuzzSegSize is the segment size FuzzRewriteSegment rewrites
// under: large enough that a segment number of 2³¹ puts an offset past a
// leaf's 47 bits.
const rewriteFuzzSegSize = 64 << 10

// FuzzRewriteSegment drives the Send-Index rewrite, which a backup runs
// over a primary's bytes, with arbitrary images, node sizes and segment
// maps (an XOR, its own inverse). It never panics, and fails with
// ErrCorruptNode or, when the map moves a leaf offset to 2⁴⁷ or beyond,
// ErrOffsetRange. When it succeeds every pointer it counts kept its
// in-segment bits and its tombstone bit and landed in the mapped
// segment, and rewriting again through the inverse map restores the
// image byte for byte: the rewrite changes no bit it does not map.
func FuzzRewriteSegment(f *testing.F) {
	const nodeSize = 256
	rnd := rand.New(rand.NewSource(12))
	images := [][][]byte{
		builtSegments(f, nodeSize, sortedKeys(400, "key-%04d"), 3),          // tombstones
		builtSegments(f, nodeSize, sortedKeys(300, "sameprefix00-%05d"), 0), // empty middle column
		builtSegments(f, nodeSize, randomKeySet(rnd, 500), 0),               // nothing shared
	}
	for _, img := range images {
		for _, seg := range img {
			f.Add(seg, uint16(nodeSize), uint32(0x15))
		}
		full, last := img[0], img[len(img)-1]
		f.Add(full[:len(full)-nodeSize], uint16(nodeSize), uint32(3)) // a short last segment
		f.Add(full, uint16(nodeSize), uint32(1<<31))                  // pushed past 2^47
		f.Add(last, uint16(nodeSize), uint32(1<<31))
		hole := append([]byte(nil), full...)
		clear(hole[nodeSize : 2*nodeSize]) // a kind-0 block in the middle
		f.Add(hole, uint16(nodeSize), uint32(7))
		f.Add(full, uint16(0), uint32(0))
	}
	// A level's segments end to end: leaves and index nodes of every
	// height in the order they sealed, with no free slot between them.
	for _, img := range images {
		f.Add(bytes.Join(img, nil), uint16(nodeSize), uint32(0x15))
	}
	// An index node whose kind byte claims a leaf, between real leaves.
	for _, seg := range images[0] {
		if base := bytes.IndexByte(nodeKinds(seg, nodeSize), kindIndex); base > 0 {
			liar := append([]byte(nil), seg...)
			liar[base*nodeSize] = kindLeaf
			f.Add(liar, uint16(nodeSize), uint32(0x15))
			break
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, nodeSize uint16, key uint32) {
		ns := int(nodeSize)
		geo, _ := storage.NewGeometry(rewriteFuzzSegSize)
		m := func(s storage.SegmentID) (storage.SegmentID, error) { return s ^ storage.SegmentID(key), nil }
		moved := func(off storage.Offset) storage.Offset {
			return geo.Rebase(off, geo.Segment(off)^storage.SegmentID(key))
		}
		orig := append([]byte(nil), data...)

		n, err := RewriteSegment(data, ns, geo, m, m)
		if err != nil {
			if !errors.Is(err, ErrCorruptNode) && !errors.Is(err, ErrOffsetRange) {
				t.Fatalf("untyped rewrite error: %v", err)
			}
			if errors.Is(err, ErrOffsetRange) && !anyLeafOffset(orig, ns, func(off storage.Offset) bool { return moved(off) > maxLeafOffset }) {
				t.Fatalf("ErrOffsetRange with no leaf offset the map moves past 2^47: %v", err)
			}
			return
		}
		if ns < minNodeSize {
			t.Fatalf("node size %d accepted", ns)
		}
		pointers := 0
		for base := 0; base < len(orig) && orig[base] != kindFree; base += ns {
			was, is := orig[base:base+ns], data[base:base+ns]
			switch was[0] {
			case kindLeaf:
				lw, _ := leafOf(was)
				li, _ := leafOf(is)
				for i := 0; i < lw.count; i++ {
					v, w := getU48(lw.field(i)), getU48(li.field(i))
					if v&leafTombstone != w&leafTombstone {
						t.Fatalf("block %d row %d: tombstone bit %#x became %#x", base/ns, i, v&leafTombstone, w&leafTombstone)
					}
					if want := moved(storage.Offset(v &^ leafTombstone)); storage.Offset(w&^leafTombstone) != want {
						t.Fatalf("block %d row %d: %#x rewritten to %#x, want %#x", base/ns, i, v, w, want)
					}
				}
				pointers += lw.count
			case kindIndex:
				nw, _ := decodeIndexNode(was)
				ni, _ := decodeIndexNode(is)
				for i, c := range nw.children {
					if ni.children[i] != moved(c) {
						t.Fatalf("block %d child %d: %#x rewritten to %#x, want %#x", base/ns, i, c, ni.children[i], moved(c))
					}
				}
				pointers += len(nw.children)
			}
		}
		if pointers != n {
			t.Fatalf("rewrote %d pointers, reported %d", pointers, n)
		}
		if _, err := RewriteSegment(data, ns, geo, m, m); err != nil {
			t.Fatalf("rewrite back through the inverse map: %v", err)
		}
		if !bytes.Equal(data, orig) {
			t.Fatal("rewriting through the map and its inverse did not restore the image")
		}
	})
}

// anyLeafOffset reports whether pred holds for a value offset in a leaf
// of the image that RewriteSegment would reach: a readable leaf before
// the first free block.
func anyLeafOffset(data []byte, nodeSize int, pred func(storage.Offset) bool) bool {
	for base := 0; base+nodeSize <= len(data) && data[base] != kindFree; base += nodeSize {
		l, err := leafOf(data[base : base+nodeSize])
		if err != nil {
			continue
		}
		for i := 0; i < l.count; i++ {
			if pred(storage.Offset(getU48(l.field(i)) &^ leafTombstone)) {
				return true
			}
		}
	}
	return false
}

func TestRewriteRejectsCorruptKind(t *testing.T) {
	geo, _ := storage.NewGeometry(2048)
	data := make([]byte, 512)
	data[0] = 99
	if _, err := RewriteSegment(data, 512, geo, nil, nil); err == nil {
		t.Fatal("corrupt node kind should fail")
	}
}

func TestRewritePointerCountMatchesStructure(t *testing.T) {
	// A single leaf with n entries must rewrite exactly n pointers; an
	// index node with k pivots rewrites k+1.
	dev := newDev(t, 2048)
	fl := newFakeLog(dev.Geometry())
	var emitted []EmittedSegment
	b, _ := NewBuilder(dev, 512, func(es EmittedSegment) error {
		emitted = append(emitted, es)
		return nil
	})
	keys := sortedKeys(10, "key-%02d")
	for _, k := range keys {
		if err := b.Add(k, fl.add(k), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	identity := func(s storage.SegmentID) (storage.SegmentID, error) { return s, nil }
	total := 0
	for _, es := range emitted {
		n, err := RewriteSegment(append([]byte(nil), es.Data...), 512, dev.Geometry(), identity, identity)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	// 10 leaf entries; with 512-byte nodes a leaf holds 24 entries, so a
	// single leaf = root: exactly 10 pointers.
	if total != 10 {
		t.Fatalf("rewrote %d pointers, want 10", total)
	}
}
