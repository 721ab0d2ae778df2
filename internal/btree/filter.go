package btree

import (
	"encoding/binary"
	"fmt"
	"sync"

	"tebis/internal/kv"
)

// A level filter answers, before a get walks a level's tree, whether any
// leaf entry of the level can carry the key's 12-byte prefix. It is over
// the prefix, not the full key, because the prefix is what every pass
// over a level's entries has in hand — the builder and the Send-Index
// rewrite read a full key only on a tie — and because it is the question
// Tree.Get answers first: Get looks only at the run of entries sharing
// the key's prefix, so a prefix the filter rules out is a key the level
// cannot hold. No false negative is possible by construction; where many
// keys share a prefix the filter just cannot help.
//
// The filter is a blocked Bloom filter: every prefix sets filterProbes
// bits inside one 64-byte block, so a probe touches one cache line — two
// bits in each of two of the block's words, so a probe or an add is two
// word operations, not four. Filters are built from the prefixes' hashes
// once the count is known, and setting bits is an OR, so the filter
// depends on the multiset of prefixes alone: a primary's builder and a
// backup's rewrite of the same leaves build the same bits.
const (
	filterBitsPerKey = 10
	filterProbes     = 4
	filterBlockBits  = 512
	filterBlockWords = filterBlockBits / 64
)

// Filter is a level's prefix filter. A nil *Filter may contain every
// prefix: a level without one is walked.
type Filter struct {
	words []uint64 // filterBlockWords per block
}

// MayContain reports whether a leaf entry of the filter's level can
// carry p. False is certain; true is wrong for about one absent prefix
// in seventy.
func (f *Filter) MayContain(p *kv.Prefix) bool {
	if f == nil {
		return true
	}
	x := prefixHash(p)
	blk := f.block(x)
	w0, m0, w1, m1 := bitsOf(x)
	return ^blk[w0]&m0|^blk[w1]&m1 == 0
}

// block returns the 64-byte block the hash x selects: the block its
// place in the hash space maps to.
func (f *Filter) block(x uint32) *[filterBlockWords]uint64 {
	n := uint64(len(f.words) / filterBlockWords)
	i := uint64(x) * n >> 32
	return (*[filterBlockWords]uint64)(f.words[i*filterBlockWords:])
}

// bitsOf returns the filterProbes bits x sets in its block: masks m0
// and m1 of two bits each, in words w0 and w1 (the same word, now and
// then). They are cut from the top 30 bits of x times an odd constant
// (2⁶⁴ over the golden ratio), in which the low bits of x, which do not
// choose the block, count as much as its high ones.
func bitsOf(x uint32) (w0, m0, w1, m1 uint64) {
	y := uint64(x) * 0x9E3779B97F4A7C15
	w0, w1 = y>>61, y>>58&(filterBlockWords-1)
	m0 = 1<<(y>>52&63) | 1<<(y>>46&63)
	m1 = 1<<(y>>40&63) | 1<<(y>>34&63)
	return w0, m0, w1, m1
}

// Equal reports whether f and g hold the same bits (two nil filters
// are equal).
func (f *Filter) Equal(g *Filter) bool {
	if f == nil || g == nil {
		return f == g
	}
	if len(f.words) != len(g.words) {
		return false
	}
	for i, w := range f.words {
		if g.words[i] != w {
			return false
		}
	}
	return true
}

// FilterCollector gathers a 32-bit hash per leaf entry of a level being
// built or received, and builds the level's filter once the entry count
// is final. Build keeps the buffer and Reset empties it, so an owner
// that collects level after level reuses one.
type FilterCollector struct {
	hashes []uint32
}

// FilterCollectors is a free list of collectors: a job building or
// receiving a level takes one and gives it back, so the buffers grow to
// the largest level once and are not allocated again. It is safe for
// concurrent use; its zero value is empty.
type FilterCollectors struct {
	mu   sync.Mutex
	free []*FilterCollector
}

// Take returns an empty collector.
func (p *FilterCollectors) Take() *FilterCollector {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return new(FilterCollector)
	}
	c := p.free[n-1]
	p.free = p.free[:n-1]
	c.Reset()
	return c
}

// Give hands back a collector Take returned, which its taker no longer
// uses.
func (p *FilterCollectors) Give(c *FilterCollector) {
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// Add records one leaf entry's prefix.
func (c *FilterCollector) Add(p *kv.Prefix) {
	c.hashes = append(c.hashes, prefixHash(p))
}

// addLeaf records the prefix of every row of l: its head, the row's
// middle bytes and its tail.
func (c *FilterCollector) addLeaf(l *leaf) {
	var p kv.Prefix
	copy(p[:], l.head)
	copy(p[kv.PrefixSize-len(l.tail):], l.tail)
	for i := 0; i < l.count; i++ {
		copy(p[len(l.head):], l.middle(i))
		c.Add(&p)
	}
}

// Len returns how many entries were added since the last Reset; a nil
// collector has none.
func (c *FilterCollector) Len() int {
	if c == nil {
		return 0
	}
	return len(c.hashes)
}

// Reset empties c, keeping its buffer.
func (c *FilterCollector) Reset() { c.hashes = c.hashes[:0] }

// Build returns the filter of the n entries added since the last Reset;
// a count that is not n is an error (a level whose leaves did not all
// arrive, or arrived twice). It returns nil for no entries, and a nil
// collector, which collected nothing, builds no filter.
func (c *FilterCollector) Build(n int) (*Filter, error) {
	if c == nil {
		return nil, nil
	}
	if n != len(c.hashes) {
		return nil, fmt.Errorf("btree: level filter saw %d entries of %d", len(c.hashes), n)
	}
	if n == 0 {
		return nil, nil
	}
	blocks := (n*filterBitsPerKey + filterBlockBits - 1) / filterBlockBits
	f := &Filter{words: make([]uint64, blocks*filterBlockWords)}
	for _, x := range c.hashes {
		blk := f.block(x)
		w0, m0, w1, m1 := bitsOf(x)
		blk[w0] |= m0
		blk[w1] |= m1
	}
	return f, nil
}

// prefixHash hashes a prefix's two big-endian words: the low word,
// spread by a multiplication, into the high one, then the MurmurHash3
// finalizer, folded to 32 bits. Prefixes that differ in any bit — hashed
// keys, or ordered keys that differ in their last bytes — spread over
// the blocks and the bits alike.
func prefixHash(p *kv.Prefix) uint32 {
	h := binary.BigEndian.Uint64(p[:8]) ^ uint64(binary.BigEndian.Uint32(p[8:]))*0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h) ^ uint32(h>>32)
}
