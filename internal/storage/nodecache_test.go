package storage

import (
	"sync"
	"testing"

	"tebis/internal/integrity"
)

// cacheCount reads one family of c's metrics.
func cacheCount(t *testing.T, c *NodeCache, name string) float64 {
	t.Helper()
	for _, f := range c.Collect() {
		if f.Name == name {
			return f.Samples[0].Value
		}
	}
	t.Fatalf("no family %s", name)
	return 0
}

// cachingDevices opens one of each device that keeps a node cache.
var cachingDevices = map[string]func(t *testing.T) Device{
	"mem": func(t *testing.T) Device {
		mem, _ := newVerifying(t)
		return mem
	},
	"verifying": func(t *testing.T) Device {
		_, dev := newVerifying(t)
		return dev
	},
}

// fill runs the reader's protocol for off: miss, read, Put.
func fill(t *testing.T, c *NodeCache, off Offset, node any) {
	t.Helper()
	got, inc := c.Get(off)
	if got != nil {
		t.Fatalf("Get(%#x) hit %v before the fill", off, got)
	}
	c.Put(off, inc, node, 512)
	if got, _ := c.Get(off); got != node {
		t.Fatalf("Get(%#x) after Put = %v, want %v", off, got, node)
	}
}

// TestNodeCacheFollowsIncarnation is the cache's one invariant at the
// device boundary: every Alloc, Free, write and Invalidate of a segment
// makes the nodes cached from it, by a lookup's Put or by its writer's
// Fill, unreachable, on both devices that keep a cache, and a fill that
// raced with one of them never becomes visible.
func TestNodeCacheFollowsIncarnation(t *testing.T) {
	payload := make([]byte, 1024)
	events := []struct {
		name string
		do   func(t *testing.T, dev Device, seg SegmentID)
	}{
		{"WriteAt", func(t *testing.T, dev Device, seg SegmentID) {
			if err := dev.WriteAt(dev.Geometry().Pack(seg, 0), payload); err != nil {
				t.Fatal(err)
			}
		}},
		{"WriteFramed", func(t *testing.T, dev Device, seg SegmentID) {
			if err := WriteFramed(dev, dev.Geometry().Pack(seg, 0), payload, integrity.KindIndex); err != nil {
				t.Fatal(err)
			}
		}},
		{"Free", func(t *testing.T, dev Device, seg SegmentID) {
			if err := dev.Free(seg); err != nil {
				t.Fatal(err)
			}
		}},
		{"FreeThenAlloc", func(t *testing.T, dev Device, seg SegmentID) {
			if err := dev.Free(seg); err != nil {
				t.Fatal(err)
			}
			if got, err := dev.Alloc(); err != nil || got != seg {
				t.Fatalf("Alloc after Free = %d, %v; want the recycled segment %d", got, err, seg)
			}
		}},
		{"Invalidate", func(t *testing.T, dev Device, seg SegmentID) {
			v, ok := dev.(*VerifyingDevice)
			if !ok {
				t.Skip("only a verifying device invalidates")
			}
			v.Invalidate(seg)
		}},
	}
	for devName, open := range cachingDevices {
		for _, ev := range events {
			t.Run(devName+"/"+ev.name, func(t *testing.T) {
				dev := open(t)
				c := NodeCacheOf(dev)
				seg, err := dev.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				other, err := dev.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				off, otherOff := dev.Geometry().Pack(seg, 512), dev.Geometry().Pack(other, 512)
				fill(t, c, off, "node")
				fill(t, c, otherOff, "other")
				filled := dev.Geometry().Pack(seg, 1024)
				fillSegment(c, seg, filled)
				if got, _ := c.Get(filled); got != filled {
					t.Fatalf("Get(%#x) after its segment's Fill = %v", filled, got)
				}
				retired := cacheCount(t, c, "tebis_node_cache_invalidations_total")

				ev.do(t, dev, seg)
				if got, _ := c.Get(off); got != nil {
					t.Fatalf("Get after %s = %v, want a miss", ev.name, got)
				}
				if got, _ := c.Get(filled); got != nil {
					t.Fatalf("Get of a node filled before %s = %v, want a miss", ev.name, got)
				}
				if got, _ := c.Get(otherOff); got != "other" {
					t.Fatalf("%s of segment %d dropped segment %d's node", ev.name, seg, other)
				}
				if cacheCount(t, c, "tebis_node_cache_invalidations_total") == retired {
					t.Fatalf("%s was not counted as an invalidation", ev.name)
				}

				// A fill whose device read straddled the event is stored
				// under the incarnation it started in, and stays dead.
				_, inc := c.Get(otherOff + 512)
				ev.do(t, dev, other)
				c.Put(otherOff+512, inc, "raced", 512)
				if got, _ := c.Get(otherOff + 512); got != nil {
					t.Fatalf("a fill that raced with %s became visible: %v", ev.name, got)
				}
			})
		}
	}
}

// TestNodeCacheChecksumFailureDropsNodes: a scrub that finds a segment
// corrupt makes its failure sticky for reads; the nodes cached from the
// segment go with the verdict.
func TestNodeCacheChecksumFailureDropsNodes(t *testing.T) {
	mem, dev := newVerifying(t)
	seg, err := dev.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	geo := dev.Geometry()
	if err := dev.WriteFramedAt(geo.Pack(seg, 0), make([]byte, 1024), integrity.KindIndex); err != nil {
		t.Fatal(err)
	}
	fill(t, dev.NodeCache(), geo.Pack(seg, 512), "node")
	if err := mem.WriteAt(geo.Pack(seg, 100), []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := dev.VerifySegment(seg); err == nil {
		t.Fatal("VerifySegment passed a corrupt segment")
	}
	if got, _ := dev.NodeCache().Get(geo.Pack(seg, 512)); got != nil {
		t.Fatalf("node of a segment that failed verification still cached: %v", got)
	}
}

// TestNodeCacheFreeUnlinks: freeing a segment gives its nodes back to
// the collector instead of leaving them resident until their slots are
// reused.
func TestNodeCacheFreeUnlinks(t *testing.T) {
	for name, open := range cachingDevices {
		dev := open(t)
		c := NodeCacheOf(dev)
		freed, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		kept, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 3; i++ {
			fill(t, c, dev.Geometry().Pack(freed, i*512), i)
		}
		fill(t, c, dev.Geometry().Pack(kept, 0), "kept")
		if err := dev.Free(freed); err != nil {
			t.Fatal(err)
		}
		if b := cacheCount(t, c, "tebis_node_cache_bytes"); b != 512 {
			t.Errorf("%s: %v bytes resident after Free, want the other segment's 512", name, b)
		}
	}
}

// TestNodeCacheSecondChance fills one set past its ways: the node that
// was hit since the last sweep survives, an unreferenced one goes.
func TestNodeCacheSecondChance(t *testing.T) {
	mem, _ := newVerifying(t)
	c := mem.NodeCache()
	c.Resize(nodeCacheWays) // one set
	seg, err := mem.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	off := func(i int) Offset { return mem.Geometry().Pack(seg, int64(i)*512) }
	for i := 0; i < nodeCacheWays; i++ {
		fill(t, c, off(i), i)
	}
	// fill's own Get set every reference bit; one full sweep clears
	// them and takes way 0, so re-reference node 1 after that.
	fill(t, c, off(nodeCacheWays), nodeCacheWays)
	if got, _ := c.Get(off(1)); got != 1 {
		t.Fatalf("node 1 evicted by the first overflow: %v", got)
	}
	fill(t, c, off(nodeCacheWays+1), nodeCacheWays+1)
	if got, _ := c.Get(off(1)); got != 1 {
		t.Fatal("the node hit since the last sweep was evicted")
	}
	if got, _ := c.Get(off(2)); got != nil {
		t.Fatalf("the unreferenced node the hand pointed at survived: %v", got)
	}
	if n := cacheCount(t, c, "tebis_node_cache_evictions_total"); n != 2 {
		t.Fatalf("evictions = %v, want 2", n)
	}
	if b := cacheCount(t, c, "tebis_node_cache_bytes"); b != nodeCacheWays*512 {
		t.Fatalf("resident bytes = %v, want %d", b, nodeCacheWays*512)
	}
}

// fillSegment runs a writer's Fill of the nodes at offs of seg, each
// node its own offset.
func fillSegment(c *NodeCache, seg SegmentID, offs ...Offset) {
	c.Fill(seg, len(offs), func(i int) (Offset, any, int) { return offs[i], offs[i], 512 })
}

// TestNodeCacheFillTakesNoLiveWay fills a set whose ways all hold live
// nodes: the fill displaces none of them and counts no eviction.
func TestNodeCacheFillTakesNoLiveWay(t *testing.T) {
	mem, _ := newVerifying(t)
	c := mem.NodeCache()
	c.Resize(nodeCacheWays) // one set
	seg, err := mem.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	off := func(i int) Offset { return mem.Geometry().Pack(seg, int64(i)*512) }
	for i := 0; i < nodeCacheWays; i++ {
		fill(t, c, off(i), i)
	}
	fillSegment(c, seg, off(nodeCacheWays))
	for i := 0; i < nodeCacheWays; i++ {
		if got, _ := c.Get(off(i)); got != i {
			t.Fatalf("node %d displaced by a fill: %v", i, got)
		}
	}
	if got, _ := c.Get(off(nodeCacheWays)); got != nil {
		t.Fatalf("a fill into a full set was cached: %v", got)
	}
	if n := cacheCount(t, c, "tebis_node_cache_evictions_total"); n != 0 {
		t.Fatalf("evictions = %v, want 0", n)
	}
	if b := cacheCount(t, c, "tebis_node_cache_bytes"); b != nodeCacheWays*512 {
		t.Fatalf("resident bytes = %v, want %d", b, nodeCacheWays*512)
	}
}

// TestNodeCacheFillGoesFirst: a filled node enters unreferenced, so the
// next demand miss in its set takes its way, behind the CLOCK hand's
// back, before any node a lookup hit.
func TestNodeCacheFillGoesFirst(t *testing.T) {
	mem, _ := newVerifying(t)
	c := mem.NodeCache()
	c.Resize(nodeCacheWays) // one set
	seg, err := mem.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	off := func(i int) Offset { return mem.Geometry().Pack(seg, int64(i)*512) }
	// Ways 0–2 hold nodes a lookup hit (fill's own Get); the fill takes
	// way 3, the last the hand reaches from way 0.
	for i := 0; i < nodeCacheWays-1; i++ {
		fill(t, c, off(i), i)
	}
	filled := off(nodeCacheWays - 1)
	fillSegment(c, seg, filled)
	if b := cacheCount(t, c, "tebis_node_cache_bytes"); b != nodeCacheWays*512 {
		t.Fatalf("resident bytes = %v after the fill, want %d", b, nodeCacheWays*512)
	}
	fill(t, c, off(nodeCacheWays), nodeCacheWays)
	if got, _ := c.Get(filled); got != nil {
		t.Fatalf("the filled node survived the demand miss: %v", got)
	}
	for i := 0; i < nodeCacheWays-1; i++ {
		if got, _ := c.Get(off(i)); got != i {
			t.Fatalf("the demand miss displaced node %d, which a lookup hit, before the fill: %v", i, got)
		}
	}
	if n := cacheCount(t, c, "tebis_node_cache_evictions_total"); n != 1 {
		t.Fatalf("evictions = %v, want 1", n)
	}
}

// TestNodeCacheResetEmpties: Reset leaves no node resident — none is
// hit, the gauge reads zero — so a measured phase starts cold and the
// heap gives the warm-up's nodes back.
func TestNodeCacheResetEmpties(t *testing.T) {
	for name, open := range cachingDevices {
		dev := open(t)
		c := NodeCacheOf(dev)
		seg, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		offs := []Offset{dev.Geometry().Pack(seg, 0), dev.Geometry().Pack(seg, 512)}
		fill(t, c, offs[0], "put")
		fillSegment(c, seg, offs[1])
		c.Reset()
		if b := cacheCount(t, c, "tebis_node_cache_bytes"); b != 0 {
			t.Errorf("%s: %v bytes resident after Reset, want 0", name, b)
		}
		for _, off := range offs {
			if got, _ := c.Get(off); got != nil {
				t.Errorf("%s: Get(%#x) after Reset = %v, want a miss", name, off, got)
			}
		}
		for s := range c.sets {
			for w := range c.sets[s].ways {
				if e := c.sets[s].ways[w].Load(); e != nil {
					t.Fatalf("%s: way %d of set %d still holds the node of %#x", name, w, s, e.off)
				}
			}
		}
	}
}

// TestNodeCacheHitAllocatesNothing pins the hit path's cost.
func TestNodeCacheHitAllocatesNothing(t *testing.T) {
	mem, _ := newVerifying(t)
	c := mem.NodeCache()
	seg, err := mem.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	off := mem.Geometry().Pack(seg, 512)
	node := &struct{ b [64]byte }{}
	fill(t, c, off, node)
	if n := testing.AllocsPerRun(1000, func() {
		if got, _ := c.Get(off); got != node {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Fatalf("a hit allocates %v times", n)
	}
}

// TestNodeCacheConcurrent hammers a small cache from readers, fillers
// and a goroutine that keeps rewriting the segments: whatever a Get
// returns must be the node of that offset (run under -race).
func TestNodeCacheConcurrent(t *testing.T) {
	mem, _ := newVerifying(t)
	c := mem.NodeCache()
	c.Resize(2 * nodeCacheWays)
	geo := mem.Geometry()
	var segs []SegmentID
	for i := 0; i < 4; i++ {
		seg, err := mem.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				off := geo.Pack(segs[(i+g)%len(segs)], int64(i%7)*512)
				got, inc := c.Get(off)
				if got == nil {
					c.Put(off, inc, off, 512)
				} else if got != off {
					t.Errorf("Get(%#x) returned the node of %#x", off, got)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if err := mem.WriteAt(geo.Pack(segs[i%len(segs)], 0), []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// BenchmarkNodeCacheHit is the cost a warm B+-tree descent pays per
// node in place of a device read, a 4 KiB copy and a decode.
func BenchmarkNodeCacheHit(b *testing.B) {
	mem, err := NewMemDevice(256<<10, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer mem.Close()
	c, geo := mem.NodeCache(), mem.Geometry()
	const nodes = 512
	offs := make([]Offset, nodes)
	for i := range offs {
		offs[i] = geo.Pack(SegmentID(1+i/60), int64(i%60)*4096)
		_, inc := c.Get(offs[i])
		c.Put(offs[i], inc, &offs[i], 4096)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, _ := c.Get(offs[i%nodes]); v == nil {
			b.Fatal("miss")
		}
	}
}
