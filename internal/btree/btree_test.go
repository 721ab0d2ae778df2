package btree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

// fakeLog assigns synthetic value-log offsets to keys and resolves them
// back, standing in for the real value log in tree tests.
type fakeLog struct {
	geo  storage.Geometry
	keys map[storage.Offset][]byte
	next int64
	seg  storage.SegmentID
}

func newFakeLog(geo storage.Geometry) *fakeLog {
	return &fakeLog{geo: geo, keys: map[storage.Offset][]byte{}, seg: 10000}
}

func (f *fakeLog) add(key []byte) storage.Offset {
	if f.next+int64(len(key)) >= f.geo.SegmentSize() {
		f.seg++
		f.next = 0
	}
	off := f.geo.Pack(f.seg, f.next)
	f.next += int64(len(key)) + 8
	f.keys[off] = append([]byte(nil), key...)
	return off
}

func (f *fakeLog) reader() FullKeyReader {
	return func(off storage.Offset) ([]byte, error) {
		k, ok := f.keys[off]
		if !ok {
			return nil, fmt.Errorf("fakeLog: unknown offset %#x", off)
		}
		return k, nil
	}
}

func newDev(t testing.TB, segSize int64) *storage.MemDevice {
	t.Helper()
	d, err := storage.NewMemDevice(segSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// buildTree builds a tree over the given sorted keys and returns it with
// its fake log.
func buildTree(t testing.TB, dev storage.Device, nodeSize int, keys [][]byte, emit EmitFunc) (*Tree, *fakeLog, Built) {
	t.Helper()
	fl := newFakeLog(dev.Geometry())
	b, err := NewBuilder(dev, nodeSize, emit)
	if err != nil {
		t.Fatal(err)
	}
	b.SetFilterCollector(new(FilterCollector))
	for _, k := range keys {
		if err := b.Add(k, fl.add(k), false); err != nil {
			t.Fatalf("Add(%q): %v", k, err)
		}
	}
	built, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return NewTree(dev, nodeSize, built.Root), fl, built
}

// first returns an iterator standing on t's first entry.
func first(t *Tree) *Iterator {
	it := new(Iterator)
	it.First(t)
	return it
}

// seekGE returns an iterator standing on t's first entry whose key is >=
// key.
func seekGE(t *Tree, key []byte, fullKey FullKeyReader) (*Iterator, error) {
	it := new(Iterator)
	return it, it.SeekGE(t, key, fullKey)
}

func sortedKeys(n int, format string) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf(format, i))
	}
	sort.Slice(keys, func(i, j int) bool { return kv.Compare(keys[i], keys[j]) < 0 })
	return keys
}

func TestEmptyTree(t *testing.T) {
	dev := newDev(t, 4096)
	b, _ := NewBuilder(dev, 512, nil)
	built, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if built.Root != storage.NilOffset || built.NumKeys != 0 {
		t.Fatalf("empty build = %+v", built)
	}
	tree := NewTree(dev, 512, built.Root)
	_, _, found, err := tree.Get([]byte("x"), nil)
	if err != nil || found {
		t.Fatalf("Get on empty tree = found %v, err %v", found, err)
	}
	if first(tree).Valid() {
		t.Fatal("iterator on empty tree should be invalid")
	}
}

func TestSingleLeafTree(t *testing.T) {
	dev := newDev(t, 4096)
	keys := sortedKeys(5, "key-%02d")
	tree, fl, built := buildTree(t, dev, 512, keys, nil)
	if built.NumKeys != 5 {
		t.Fatalf("NumKeys = %d", built.NumKeys)
	}
	for _, k := range keys {
		_, _, found, err := tree.Get(k, fl.reader())
		if err != nil || !found {
			t.Fatalf("Get(%q) = %v, %v", k, found, err)
		}
	}
	if _, _, found, _ := tree.Get([]byte("nope"), fl.reader()); found {
		t.Fatal("absent key found")
	}
}

func TestMultiLevelTree(t *testing.T) {
	dev := newDev(t, 4096)
	keys := sortedKeys(5000, "user%08d")
	tree, fl, built := buildTree(t, dev, 512, keys, nil)
	if len(built.Segments) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(built.Segments))
	}
	for i := 0; i < len(keys); i += 37 {
		off, tomb, found, err := tree.Get(keys[i], fl.reader())
		if err != nil {
			t.Fatalf("Get(%q): %v", keys[i], err)
		}
		if !found || tomb {
			t.Fatalf("Get(%q) found=%v tomb=%v", keys[i], found, tomb)
		}
		got, _ := fl.reader()(off)
		if kv.Compare(got, keys[i]) != 0 {
			t.Fatalf("Get(%q) resolved to %q", keys[i], got)
		}
	}
	// Absent keys between and around existing ones.
	for _, k := range []string{"user", "user00000000x", "zzzz", "a"} {
		if _, _, found, err := tree.Get([]byte(k), fl.reader()); err != nil || found {
			t.Fatalf("Get(%q) = found %v, err %v", k, found, err)
		}
	}
}

func TestIteratorFullOrder(t *testing.T) {
	dev := newDev(t, 4096)
	keys := sortedKeys(3000, "user%08d")
	tree, fl, _ := buildTree(t, dev, 512, keys, nil)
	i := 0
	for it := first(tree); it.Valid(); it.Next() {
		full, err := fl.reader()(it.Entry().ValueOff)
		if err != nil {
			t.Fatal(err)
		}
		if kv.Compare(full, keys[i]) != 0 {
			t.Fatalf("iter[%d] = %q, want %q", i, full, keys[i])
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("iterated %d keys, want %d", i, len(keys))
	}
}

func TestSeekGE(t *testing.T) {
	dev := newDev(t, 4096)
	keys := sortedKeys(1000, "user%08d")
	tree, fl, _ := buildTree(t, dev, 512, keys, nil)

	cases := []struct {
		seek string
		want string
	}{
		{"user00000000", "user00000000"},
		{"user00000500", "user00000500"},
		{"user000005001", "user00000501"}, // between keys
		{"a", "user00000000"},             // before all
		{"user00000999", "user00000999"},  // last
	}
	for _, c := range cases {
		it, err := seekGE(tree, []byte(c.seek), fl.reader())
		if err != nil {
			t.Fatalf("SeekGE(%q): %v", c.seek, err)
		}
		if !it.Valid() {
			t.Fatalf("SeekGE(%q) invalid", c.seek)
		}
		full, _ := fl.reader()(it.Entry().ValueOff)
		if string(full) != c.want {
			t.Fatalf("SeekGE(%q) = %q, want %q", c.seek, full, c.want)
		}
	}
	it, err := seekGE(tree, []byte("zzz"), fl.reader())
	if err != nil {
		t.Fatal(err)
	}
	if it.Valid() {
		t.Fatal("SeekGE past end should be invalid")
	}
}

func TestPrefixCollisions(t *testing.T) {
	// Keys sharing the full 12-byte prefix must still resolve exactly.
	dev := newDev(t, 4096)
	var keys [][]byte
	for i := 0; i < 600; i++ {
		keys = append(keys, []byte(fmt.Sprintf("sameprefix00-%05d", i)))
	}
	sort.Slice(keys, func(i, j int) bool { return kv.Compare(keys[i], keys[j]) < 0 })
	tree, fl, _ := buildTree(t, dev, 512, keys, nil)
	for _, k := range keys {
		off, _, found, err := tree.Get(k, fl.reader())
		if err != nil || !found {
			t.Fatalf("Get(%q) = %v, %v", k, found, err)
		}
		full, _ := fl.reader()(off)
		if kv.Compare(full, k) != 0 {
			t.Fatalf("Get(%q) resolved to %q", k, full)
		}
	}
	if _, _, found, _ := tree.Get([]byte("sameprefix00-99999"), fl.reader()); found {
		t.Fatal("absent colliding key found")
	}
}

func TestTombstonesSurviveBuild(t *testing.T) {
	dev := newDev(t, 4096)
	fl := newFakeLog(dev.Geometry())
	b, _ := NewBuilder(dev, 512, nil)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		if err := b.Add(k, fl.add(k), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	built, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tree := NewTree(dev, 512, built.Root)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		_, tomb, found, err := tree.Get(k, fl.reader())
		if err != nil || !found {
			t.Fatalf("Get(%q): %v %v", k, found, err)
		}
		if tomb != (i%2 == 0) {
			t.Fatalf("Get(%q) tomb = %v", k, tomb)
		}
	}
}

func TestBuilderRejectsOutOfOrder(t *testing.T) {
	dev := newDev(t, 4096)
	b, _ := NewBuilder(dev, 512, nil)
	if err := b.Add([]byte("b"), 1, false); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte("a"), 2, false); err == nil {
		t.Fatal("out-of-order Add should fail")
	}
	if err := b.Add([]byte("b"), 3, false); err == nil {
		t.Fatal("duplicate Add should fail")
	}
}

func TestBuilderRejectsBadNodeSize(t *testing.T) {
	dev := newDev(t, 4096)
	for _, ns := range []int{0, 63, 1000, 8192} {
		if _, err := NewBuilder(dev, ns, nil); err == nil {
			t.Errorf("NewBuilder(nodeSize=%d) should fail", ns)
		}
	}
}

func TestIncrementalEmission(t *testing.T) {
	dev := newDev(t, 2048)
	var emitted []EmittedSegment
	keys := sortedKeys(4000, "user%08d")
	_, _, built := buildTree(t, dev, 512, keys, func(es EmittedSegment) error {
		emitted = append(emitted, es)
		return nil
	})
	if len(emitted) != len(built.Segments) {
		t.Fatalf("emitted %d segments, built reports %d", len(emitted), len(built.Segments))
	}
	// Every emitted segment's data must be node-aligned and non-empty,
	// and the level's segments together hold its leaves and its index
	// nodes.
	leaves, index := 0, 0
	for _, es := range emitted {
		if len(es.Data) == 0 || len(es.Data)%512 != 0 {
			t.Fatalf("segment %d data len %d", es.Seg, len(es.Data))
		}
		for off := 0; off < len(es.Data); off += 512 {
			if IsLeaf(es.Data[off:]) {
				leaves++
			} else {
				index++
			}
		}
	}
	if leaves == 0 || index == 0 {
		t.Fatalf("%d leaves and %d index nodes emitted, want both", leaves, index)
	}
	// Emission must be mostly incremental: at least one segment
	// must be emitted before the build finishes adding (we can't observe
	// that directly here, but the count of full segments must dominate).
	full := 0
	for _, es := range emitted {
		if int64(len(es.Data)) == 2048 {
			full++
		}
	}
	if full == 0 {
		t.Fatal("expected sealed-full segments during the build")
	}
}

// cacheMisses reads the misses counter of dev's node cache.
func cacheMisses(t *testing.T, dev storage.Device) float64 {
	t.Helper()
	for _, f := range storage.NodeCacheOf(dev).Collect() {
		if f.Name == "tebis_node_cache_misses_total" {
			return f.Samples[0].Value
		}
	}
	t.Fatal("no misses counter")
	return 0
}

// TestBuilderFillsTheNodeCache: the builder puts every segment it writes
// into the device's node cache, so lookups and seeks in the tree it has
// just built miss nothing and read no node from the device, on both
// devices that keep a cache. A compaction cursor still reads every node
// from the device, and a fill costs two allocations per segment, not
// one per node.
func TestBuilderFillsTheNodeCache(t *testing.T) {
	const nodeSize = 512
	for name, wrap := range map[string]func(*storage.MemDevice) storage.Device{
		"mem":       func(m *storage.MemDevice) storage.Device { return m },
		"verifying": func(m *storage.MemDevice) storage.Device { return storage.AsVerifying(m) },
	} {
		t.Run(name, func(t *testing.T) {
			dev := wrap(newDev(t, 8192))
			keys := sortedKeys(3000, "key-%05d")
			var firstSeg EmittedSegment
			tree, fl, built := buildTree(t, dev, nodeSize, keys, func(es EmittedSegment) error {
				if firstSeg.Data == nil {
					firstSeg = es
				}
				return nil
			})
			if len(built.Segments) < 3 {
				t.Fatalf("tree spans %d segments, want several", len(built.Segments))
			}
			misses, read := cacheMisses(t, dev), dev.Stats().BytesRead
			for _, k := range keys {
				if _, _, found, err := tree.Get(k, fl.reader()); err != nil || !found {
					t.Fatalf("Get(%q) = %v, %v", k, found, err)
				}
				if it, err := seekGE(tree, k, fl.reader()); err != nil || !it.Valid() {
					t.Fatalf("SeekGE(%q): %v", k, err)
				}
			}
			if m := cacheMisses(t, dev) - misses; m != 0 {
				t.Errorf("lookups in a tree just built missed the node cache %v times, want 0", m)
			}
			if r := dev.Stats().BytesRead - read; r != 0 {
				t.Errorf("lookups in a tree just built read %d bytes of nodes, want 0", r)
			}

			read = dev.Stats().BytesRead
			it := first(tree)
			for ; it.Valid(); it.Next() {
			}
			if r := dev.Stats().BytesRead - read; r != uint64(it.NodesRead()*nodeSize) {
				t.Errorf("a compaction cursor read %d bytes for %d nodes; want every node from the device", r, it.NodesRead())
			}

			b, err := NewBuilder(dev, nodeSize, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(20, func() { b.fill(firstSeg.Seg, firstSeg.Data) }); n != 2 {
				t.Errorf("filling a segment of %d nodes allocates %v times, want 2", len(firstSeg.Data)/nodeSize, n)
			}
		})
	}
}

// heights counts the tree's heights along its leftmost path.
func heights(t *testing.T, tree *Tree) int {
	t.Helper()
	off := tree.Root()
	for h := 1; ; h++ {
		var n node
		if err := tree.readNode(off, &n); err != nil {
			t.Fatal(err)
		}
		if n.isLeaf() {
			return h
		}
		off = n.index.children[0]
	}
}

// TestLevelWastesAtMostOneSegment: a level is one chain of segments —
// every height places its nodes in the level's current segment — so it
// spans as few segments as its nodes fill, and only the last one it
// emits is partly filled, however many heights the tree has. With a
// segment per height, each height's last segment was partial.
func TestLevelWastesAtMostOneSegment(t *testing.T) {
	const nodeSize = 512
	// A framed device: its trailer costs a slot, so a segment holds 15.
	dev := storage.AsVerifying(newDev(t, 8192))
	slots := int(storage.UsableCapacity(dev) / nodeSize)
	for _, c := range []struct{ keys, heights int }{{20, 1}, {600, 2}, {5000, 3}} {
		var emitted []EmittedSegment
		tree, fl, built := buildTree(t, dev, nodeSize, sortedKeys(c.keys, "key-%06d"), func(es EmittedSegment) error {
			emitted = append(emitted, es)
			return nil
		})
		if h := heights(t, tree); h != c.heights {
			t.Fatalf("%d keys built %d heights, want %d", c.keys, h, c.heights)
		}
		nodes := 0
		for i, es := range emitted {
			n := len(es.Data) / nodeSize
			nodes += n
			if n < slots && i < len(emitted)-1 {
				t.Errorf("%d keys: segment %d of %d holds %d of %d nodes; only the last may be partial",
					c.keys, i, len(emitted), n, slots)
			}
		}
		if want := (nodes + slots - 1) / slots; len(built.Segments) != want || len(emitted) != want {
			t.Errorf("%d keys: %d nodes in %d segments (%d emitted), want %d of %d slots",
				c.keys, nodes, len(built.Segments), len(emitted), want, slots)
		}
		for _, k := range sortedKeys(c.keys, "key-%06d") {
			if _, _, found, err := tree.Get(k, fl.reader()); err != nil || !found {
				t.Fatalf("%d keys: Get(%q) = %v, %v", c.keys, k, found, err)
			}
		}
	}
}

// TestBuilderBuffersGrowWithTheirNodes: a level's segment buffer grows
// with the nodes it seals, so a build of one node allocates a small
// fraction of a segment, not a segment and a copy of its node; and no emitted segment
// — which the node cache keeps alive through its nodes — carries memory
// past its nodes. The key counts end the level in a partial segment of
// 1, 11, 24, 47 and 9 nodes: a copy rounded up to whole 8 KiB pages, as
// bytes.Clone's is past 32 KiB, holds 4 KiB past an odd count of 4 KiB
// nodes.
func TestBuilderBuffersGrowWithTheirNodes(t *testing.T) {
	const segSize, nodeSize = 256 << 10, 4096
	for _, n := range []int{10, 4000, 10000, 20000, 31000} {
		dev := newDev(t, segSize)
		keys := sortedKeys(n, "key-%06d")
		fl := newFakeLog(dev.Geometry())
		offs := make([]storage.Offset, n)
		for i, k := range keys {
			offs[i] = fl.add(k)
		}
		emitted := 0
		b, err := NewBuilder(dev, nodeSize, func(es EmittedSegment) error {
			if cap(es.Data) != len(es.Data) {
				t.Errorf("%d keys: a segment of %d bytes holds a buffer of %d", n, len(es.Data), cap(es.Data))
			}
			emitted += len(es.Data)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, k := range keys {
			if err := b.Add(k, offs[i], false); err != nil {
				t.Fatal(err)
			}
		}
		built, err := b.Finish()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n == 10 {
			if len(built.Segments) != 1 || emitted != nodeSize {
				t.Fatalf("%d keys built %d segments of %d bytes, want one node", n, len(built.Segments), emitted)
			}
			// Less the device's own copy of the segment it allocated.
			if alloc := after.TotalAlloc - before.TotalAlloc - segSize; alloc > segSize/4 {
				t.Errorf("a one-node build allocated %d bytes besides the device's segment, which is %d", alloc, segSize)
			}
		}
	}
}

// TestFillBesideLookups builds and frees trees on a device whose small
// node cache readers of another tree share: the fills, the readers'
// demand misses and the frees race for the same ways, and every lookup
// must still answer from its own tree (run it under -race).
func TestFillBesideLookups(t *testing.T) {
	const nodeSize = 512
	dev := newDev(t, 8192)
	dev.NodeCache().Resize(64)
	keys := sortedKeys(2000, "key-%05d")
	tree, fl, _ := buildTree(t, dev, nodeSize, keys, nil)
	want := make([]storage.Offset, len(keys))
	for i, k := range keys {
		off, _, found, err := tree.Get(k, fl.reader())
		if err != nil || !found {
			t.Fatalf("Get(%q) = %v, %v", k, found, err)
		}
		want[i] = off
	}
	reader := fl.reader() // the fake log is read-only from here on
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				k := i % len(keys)
				off, _, found, err := tree.Get(keys[k], reader)
				if err != nil || !found || off != want[k] {
					t.Errorf("Get(%q) beside a build = %#x, %v, %v; want %#x", keys[k], off, found, err, want[k])
					return
				}
			}
		}(g)
	}
	other := sortedKeys(1500, "other-%05d")
	for round := 0; round < 20; round++ {
		b, err := NewBuilder(dev, nodeSize, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range other {
			if err := b.Add(k, storage.Offset(i+1), false); err != nil {
				t.Fatal(err)
			}
		}
		built, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range built.Segments {
			if err := dev.Free(seg); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestBuildPropertyRandomKeys(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	for round := 0; round < 5; round++ {
		dev := newDev(t, 4096)
		n := 1 + rnd.Intn(2000)
		set := map[string]bool{}
		for len(set) < n {
			klen := 1 + rnd.Intn(30)
			k := make([]byte, klen)
			for i := range k {
				k[i] = byte('a' + rnd.Intn(26))
			}
			set[string(k)] = true
		}
		var keys [][]byte
		for k := range set {
			keys = append(keys, []byte(k))
		}
		sort.Slice(keys, func(i, j int) bool { return kv.Compare(keys[i], keys[j]) < 0 })
		tree, fl, _ := buildTree(t, dev, 512, keys, nil)
		for _, k := range keys {
			if _, _, found, err := tree.Get(k, fl.reader()); err != nil || !found {
				t.Fatalf("round %d: Get(%q) = %v, %v", round, k, found, err)
			}
		}
		// Iterator yields exactly the key set in order.
		i := 0
		for it := first(tree); it.Valid(); it.Next() {
			full, err := fl.reader()(it.Entry().ValueOff)
			if err != nil {
				t.Fatal(err)
			}
			if kv.Compare(full, keys[i]) != 0 {
				t.Fatalf("round %d: iter[%d] = %q, want %q", round, i, full, keys[i])
			}
			i++
		}
		if i != len(keys) {
			t.Fatalf("round %d: iterated %d, want %d", round, i, len(keys))
		}
	}
}

// TestCorruptIndexNodesRejected: decoding must fail cleanly, never
// panic, when node bytes are damaged.
func TestCorruptIndexNodesRejected(t *testing.T) {
	dev := newDev(t, 4096)
	keys := sortedKeys(2000, "user%08d")
	tree, fl, built := buildTree(t, dev, 512, keys, nil)
	_ = tree
	// Corrupt the root block's pivot length fields and re-read.
	geo := dev.Geometry()
	block := make([]byte, 512)
	if err := dev.ReadAt(built.Root, block); err != nil {
		t.Fatal(err)
	}
	if block[0] != 2 { // must be an index node for this test to bite
		t.Skip("root is a leaf at this scale")
	}
	corrupt := append([]byte(nil), block...)
	for i := 16; i < len(corrupt); i++ {
		corrupt[i] = 0xff
	}
	if err := dev.WriteAt(built.Root, corrupt); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := NewTree(dev, 512, built.Root).Get(keys[0], fl.reader()); err == nil {
		t.Fatal("corrupt index node accepted")
	}
	// Restore and verify recovery.
	if err := dev.WriteAt(built.Root, block); err != nil {
		t.Fatal(err)
	}
	if _, _, found, err := NewTree(dev, 512, built.Root).Get(keys[0], fl.reader()); err != nil || !found {
		t.Fatalf("restored root: %v %v", found, err)
	}
	_ = geo
}
