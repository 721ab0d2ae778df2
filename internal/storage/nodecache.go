package storage

import (
	"sync/atomic"

	"tebis/internal/metrics"
)

const (
	// nodeCacheNodes is the capacity of a device's NodeCache: 4096 nodes,
	// 16 MiB of 4 KiB nodes. DESIGN.md "Index node cache" has the sweep
	// it was chosen from.
	nodeCacheNodes = 4096
	// nodeCacheWays is the associativity: a node may live in any of the
	// ways of the one set its offset hashes to.
	nodeCacheWays = 4
	// incarnationSlots sizes the incarnation table. Segments share a
	// slot modulo this; sharing costs a spurious miss, never a stale hit.
	incarnationSlots = 4096
)

// NodeCacher is implemented by devices that keep a NodeCache.
type NodeCacher interface {
	NodeCache() *NodeCache
}

// NodeCacheOf returns dev's node cache, or nil if dev keeps none (every
// NodeCache method is a no-op miss on a nil receiver).
func NodeCacheOf(dev Device) *NodeCache {
	if nc, ok := dev.(NodeCacher); ok {
		return nc.NodeCache()
	}
	return nil
}

// NodeCache is a device's bounded cache of decoded B+-tree nodes, keyed
// by device offset. The reader (internal/btree) decides what a decoded
// node is; the device decides how long it stays valid. Nodes enter on a
// lookup's miss (Put) and, for a segment just written, from the image
// its writer wrote (Fill).
//
// Validity follows the segment incarnation: the owning device calls
// retire for every Alloc, Free, write and Invalidate of a segment before
// that call returns, which makes every node cached from the segment
// unreachable. A reader takes the incarnation from the Get that missed —
// before its device read — and hands it back to Put, so a fill that
// raced with a retire is stored under a dead incarnation and never hit.
//
// Entries are immutable and sit behind atomic pointers in a fixed
// set-associative table, so a hit takes no lock and allocates nothing;
// replacement inside a set is CLOCK (second chance). A retired
// incarnation's nodes are unreachable at once but stay resident until
// their slot is reused; a device that releases a segment also unlinks
// them, so the collector can have them.
type NodeCache struct {
	geo  Geometry
	inc  [incarnationSlots]atomic.Uint64
	sets []cacheSet // len is a power of two

	hits, misses, evictions, retired atomic.Uint64
	bytes                            atomic.Int64
}

type cacheSet struct {
	hand atomic.Uint32 // CLOCK hand: the way the next sweep starts at
	ways [nodeCacheWays]atomic.Pointer[cachedNode]
}

type cachedNode struct {
	off  Offset
	inc  uint64
	node any
	size int64
	ref  atomic.Bool // CLOCK reference bit, set by hits
}

func newNodeCache(geo Geometry) *NodeCache {
	c := &NodeCache{geo: geo}
	c.Resize(nodeCacheNodes)
	return c
}

// Resize empties the cache and sets its capacity to at least nodes. It
// exists for tests that need evictions at a small scale and must be
// called before the device is shared.
func (c *NodeCache) Resize(nodes int) {
	sets := 1
	for sets*nodeCacheWays < nodes {
		sets <<= 1
	}
	c.sets = make([]cacheSet, sets)
	c.bytes.Store(0)
}

// incarnation is the counter of the segment off lies in.
func (c *NodeCache) incarnation(off Offset) *atomic.Uint64 {
	return &c.inc[c.geo.Segment(off)%incarnationSlots]
}

// retire ends the current incarnation of seg.
func (c *NodeCache) retire(seg SegmentID) {
	c.incarnation(c.geo.Pack(seg, 0)).Add(1)
	c.retired.Add(1)
}

// unlink sweeps the table for the nodes of seg, retired and now freed
// for good: a workload that keeps replacing levels would otherwise fill
// the cache with dead nodes.
func (c *NodeCache) unlink(seg SegmentID) {
	for s := range c.sets {
		for w := range c.sets[s].ways {
			way := &c.sets[s].ways[w]
			if e := way.Load(); e != nil && c.geo.Segment(e.off) == seg && way.CompareAndSwap(e, nil) {
				c.bytes.Add(-e.size)
			}
		}
	}
}

// Reset empties the cache: every way gives its node back to the
// collector and its bytes to the gauge.
func (c *NodeCache) Reset() {
	if c == nil {
		return
	}
	for s := range c.sets {
		for w := range c.sets[s].ways {
			if e := c.sets[s].ways[w].Swap(nil); e != nil {
				c.bytes.Add(-e.size)
			}
		}
	}
}

func (c *NodeCache) set(off Offset) *cacheSet {
	// Fibonacci hashing: node offsets are multiples of the node size, so
	// the low bits carry nothing.
	h := uint64(off) * 0x9E3779B97F4A7C15
	return &c.sets[(h>>32)&uint64(len(c.sets)-1)]
}

// Get returns the node cached for off, or nil. On a miss, inc is the
// incarnation to pass to Put once the node has been read and decoded.
func (c *NodeCache) Get(off Offset) (node any, inc uint64) {
	if c == nil {
		return nil, 0
	}
	inc = c.incarnation(off).Load()
	set := c.set(off)
	for i := range set.ways {
		if e := set.ways[i].Load(); e != nil && e.off == off && e.inc == inc {
			if !e.ref.Load() {
				e.ref.Store(true)
			}
			c.hits.Add(1)
			return e.node, inc
		}
	}
	c.misses.Add(1)
	return nil, inc
}

// Put caches node, size bytes large, for off under the incarnation the
// missing Get returned. node must not be modified afterwards.
func (c *NodeCache) Put(off Offset, inc uint64, node any, size int) {
	if c == nil || c.incarnation(off).Load() != inc {
		return
	}
	set := c.set(off)
	victim := -1
	for i := range set.ways {
		e := set.ways[i].Load()
		if e == nil || e.off == off || e.inc != c.incarnation(e.off).Load() {
			victim = i
			break
		}
	}
	if victim < 0 {
		// Second chance: sweep from the hand, clearing reference bits,
		// to the first way not hit since the last sweep passed it.
		hand := int(set.hand.Load())
		victim = hand % nodeCacheWays
		for k := 0; k < 2*nodeCacheWays; k++ {
			i := (hand + k) % nodeCacheWays
			e := set.ways[i].Load()
			if e == nil || !e.ref.Load() { // nil: freed since the first pass
				victim = i
				break
			}
			e.ref.Store(false)
		}
		set.hand.Store(uint32(victim + 1))
		c.evictions.Add(1)
	}
	added := int64(size)
	if old := set.ways[victim].Swap(&cachedNode{off: off, inc: inc, node: node, size: added}); old != nil {
		added -= old.size
	}
	c.bytes.Add(added)
}

// Fill caches the n nodes that the owner of seg has just written to it,
// decoded from the image it wrote: node(i) returns the i-th node, its
// offset and its size, or a nil node to leave that one out. They are
// stored under seg's incarnation as it stands when Fill is called, so a
// fill follows the write it caches and precedes the segment's next
// write, Free or Invalidate, which end it. A filled node takes only a
// free way or one whose node is dead, and enters unreferenced: a fill
// never displaces a node that a lookup read, evicts nothing, and CLOCK
// displaces it before any node hit since the hand last passed. The n
// entries are one allocation.
func (c *NodeCache) Fill(seg SegmentID, n int, node func(i int) (off Offset, v any, size int)) {
	if c == nil || n == 0 {
		return
	}
	inc := c.incarnation(c.geo.Pack(seg, 0)).Load()
	entries := make([]cachedNode, n)
	for i := range entries {
		off, v, size := node(i)
		if v == nil {
			continue
		}
		e := &entries[i]
		e.off, e.inc, e.node, e.size = off, inc, v, int64(size)
		set := c.set(off)
		for w := range set.ways {
			way := &set.ways[w]
			old := way.Load()
			if old != nil && old.inc == c.incarnation(old.off).Load() {
				continue
			}
			if way.CompareAndSwap(old, e) {
				if old != nil {
					c.bytes.Add(-old.size)
				}
				c.bytes.Add(e.size)
				break
			}
		}
	}
}

// Collect implements metrics.Source.
func (c *NodeCache) Collect() []metrics.Family {
	if c == nil {
		return nil
	}
	return []metrics.Family{
		metrics.Counter("tebis_node_cache_hits_total",
			"B+-tree node lookups served from the index node cache.", metrics.Value(float64(c.hits.Load()))),
		metrics.Counter("tebis_node_cache_misses_total",
			"B+-tree node lookups that read and decoded the node from the device.", metrics.Value(float64(c.misses.Load()))),
		metrics.Counter("tebis_node_cache_evictions_total",
			"Live cached nodes displaced to make room for another.", metrics.Value(float64(c.evictions.Load()))),
		metrics.Counter("tebis_node_cache_invalidations_total",
			"Segment incarnations ended by an alloc, free, write or invalidate; each makes the segment's cached nodes unreachable.",
			metrics.Value(float64(c.retired.Load()))),
		metrics.Gauge("tebis_node_cache_bytes",
			"Bytes of decoded B+-tree nodes resident in the index node cache.", metrics.Value(float64(c.bytes.Load()))),
	}
}
