// Package memtable implements the in-memory L0 of the Tebis LSM tree.
//
// L0 holds <key, value-log offset> entries sorted by key. Its role (per
// the paper) is to amortize I/O: it keeps recent updates sorted in
// memory so the L0→L1 compaction streams them in order. In the
// Send-Index configuration only the primary keeps an L0; backups drop it
// entirely, which is where the scheme's memory savings come from (§3.3,
// §5.5).
//
// The table owns its memory: entries sit sorted in blocks of blockCap
// slots cut from slabs, a directory lists the blocks in key order, and
// key bytes are appended to chunks that are never moved, shared or
// recycled. No entry is a Go object: a key's first insert shifts slots in
// one block and allocates nothing, a slab or a chunk now and then aside.
package memtable

import (
	"slices"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

const (
	blockCap   = 64       // slots per block: an insert moves at most 2 KB
	slabBlocks = 8        // blocks per allocation; one growing slice would copy the table as it grew
	chunkSize  = 16 << 10 // key bytes per chunk; a longer key gets a chunk of its own
	tombBit    = 1 << 31  // in slot.klen
)

// Entry is one L0 record: the key plus the value-log location of the
// full record (or a tombstone). Key aliases the table's memory: it is
// good, and must not be written, for as long as the table is reachable.
type Entry struct {
	Key       []byte
	Off       storage.Offset
	Tombstone bool
}

// slot is an entry as stored. It carries its key's prefix beside the
// reference to the key, so that ordering two keys touches key bytes only
// when the prefixes tie: kv.MakePrefix's argument for a leaf, applied to L0.
type slot struct {
	prefix kv.Prefix
	chunk  uint32 // the key is chunks[chunk][start:][:klen&^tombBit]
	off    storage.Offset
	start  uint32
	klen   uint32
}

// run is a directory entry: block blk holds n entries, the first with
// this prefix — a copy, so the search stays in the directory.
type run struct {
	prefix kv.Prefix
	blk, n uint32
}

// Table is a sorted in-memory map from key to value-log offset. Reads
// may run concurrently with each other; writes are serialized by the
// caller, matching Kreon's single-writer L0 discipline. An insert moves
// slots, so readers are safe, and an Iterator keeps its place, only while
// no writer is active; the LSM engine's reader-writer lock sees to both.
type Table struct {
	slabs  [][]slot // block b is slabs[b/slabBlocks][b%slabBlocks*blockCap:][:blockCap]
	dir    []run    // every block once, in key order; none is empty
	chunks [][]byte
	count  int
	keyCap int64 // bytes of chunks allocated
}

// New returns an empty table. The seed is inert (it shaped the skiplist
// this table replaced); the parameter stays for its callers.
func New(seed int64) *Table { return &Table{} }

func (t *Table) key(s *slot) []byte {
	end := s.start + s.klen&^tombBit
	return t.chunks[s.chunk][s.start:end:end]
}

func (t *Table) entry(s *slot) Entry {
	return Entry{Key: t.key(s), Off: s.off, Tombstone: s.klen&tombBit != 0}
}

func (t *Table) block(d int) []slot { // the entries of directory entry d
	r := &t.dir[d]
	return t.slabs[r.blk/slabBlocks][r.blk%slabBlocks*blockCap:][:r.n]
}

// find returns where key, whose prefix is prefix, is or belongs: d is
// the last block whose first entry is not after key (0 when none is) and
// i the first position in it whose entry is not before key — the block's
// length when key orders between its last entry and block d+1's first.
func (t *Table) find(prefix kv.Prefix, key []byte) (d, i int, found bool) {
	lo, hi := 0, len(t.dir)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		c := t.dir[m].prefix.Compare(prefix)
		if c == 0 { // only a tie reads a key
			c = kv.Compare(t.key(&t.block(m)[0]), key)
		}
		if c <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 {
		return 0, 0, false
	}
	d = lo - 1
	b := t.block(d)
	lo, hi = 0, len(b)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		c := b[m].prefix.Compare(prefix)
		if c == 0 {
			c = kv.Compare(t.key(&b[m]), key)
		}
		if c == 0 {
			return d, m, true
		} else if c < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return d, lo, false
}

// Insert adds or overwrites key with the given value-log offset.
// It reports whether the key was new.
func (t *Table) Insert(key []byte, off storage.Offset, tombstone bool) bool {
	_, overwrote := t.InsertPrev(key, off, tombstone)
	return !overwrote
}

// InsertPrev adds or overwrites key, which it copies, with the given
// value-log offset and, on overwrite, returns the replaced entry — the
// hook the engine uses to charge the superseded record's bytes to the
// value log's dead-space ledger (an L0 in-place overwrite never reaches a
// compaction merge, so this is the only point its reclaim can be learned).
func (t *Table) InsertPrev(key []byte, off storage.Offset, tombstone bool) (prevEntry Entry, overwrote bool) {
	prefix := kv.MakePrefix(key)
	klen := uint32(len(key))
	if tombstone {
		klen |= tombBit
	}
	d, i, found := t.find(prefix, key)
	if found {
		s := &t.block(d)[i]
		prevEntry, s.off, s.klen = t.entry(s), off, klen
		return prevEntry, true
	}
	if len(t.dir) == 0 {
		t.dir = append(t.dir, run{blk: t.newBlock()})
	} else if t.dir[d].n == blockCap {
		at := blockCap / 2
		if d == len(t.dir)-1 && i == blockCap {
			at = blockCap - 1 // an ascending run leaves full blocks behind it
		}
		t.split(d, at)
		if i > at {
			d, i = d+1, i-at
		}
	}
	t.dir[d].n++
	b := t.block(d)
	copy(b[i+1:], b[i:])
	chunk, start := t.addKey(key)
	b[i] = slot{prefix: prefix, chunk: chunk, off: off, start: start, klen: klen}
	if i == 0 {
		t.dir[d].prefix = prefix
	}
	t.count++
	return Entry{}, false
}

// newBlock cuts the block the caller adds to the directory from the
// last slab, or from a new one: that makes its number len(t.dir).
func (t *Table) newBlock() uint32 {
	if len(t.dir)%slabBlocks == 0 {
		t.slabs = append(t.slabs, make([]slot, slabBlocks*blockCap))
	}
	return uint32(len(t.dir))
}

// split moves block d's entries from at on into a new block, next in
// the directory.
func (t *Table) split(d, at int) {
	upper := t.block(d)[at:]
	t.dir[d].n = uint32(at)
	t.dir = slices.Insert(t.dir, d+1, run{prefix: upper[0].prefix, blk: t.newBlock(), n: uint32(len(upper))})
	copy(t.block(d+1), upper)
}

// addKey copies key behind the last chunk's keys, or into a new chunk.
func (t *Table) addKey(key []byte) (chunk, start uint32) {
	c := len(t.chunks) - 1
	if c < 0 || len(key) > cap(t.chunks[c])-len(t.chunks[c]) {
		t.chunks = append(t.chunks, make([]byte, 0, max(chunkSize, len(key))))
		c++
		t.keyCap += int64(cap(t.chunks[c]))
	}
	t.chunks[c] = append(t.chunks[c], key...)
	return uint32(c), uint32(len(t.chunks[c]) - len(key))
}

// Get returns the entry for key, if present.
func (t *Table) Get(key []byte) (Entry, bool) {
	if d, i, found := t.find(kv.MakePrefix(key), key); found {
		return t.entry(&t.block(d)[i]), true
	}
	return Entry{}, false
}

// Len returns the number of distinct keys.
func (t *Table) Len() int { return t.count }

// Bytes returns the memory the table has allocated, full or not: slabs
// of 32-byte slots, the directory's 20-byte runs and the key chunks.
func (t *Table) Bytes() int64 {
	return int64(len(t.slabs))*slabBlocks*blockCap*32 + int64(cap(t.dir))*20 + t.keyCap
}

// Iterator walks the table in ascending key order. It is a value: a
// scan keeps it in memory it already has.
type Iterator struct {
	t    *Table
	d, i int // at entry i of block d; d == len(t.dir) at the end
}

// Iter returns an iterator positioned at the first entry.
func (t *Table) Iter() Iterator { return Iterator{t: t} }

// SeekGE returns an iterator positioned at the first entry >= key.
func (t *Table) SeekGE(key []byte) Iterator {
	d, i, _ := t.find(kv.MakePrefix(key), key)
	if d < len(t.dir) && i == int(t.dir[d].n) {
		d, i = d+1, 0
	}
	return Iterator{t: t, d: d, i: i}
}

func (it *Iterator) slot() *slot { return &it.t.block(it.d)[it.i] }

// Valid reports whether the iterator points at an entry.
func (it *Iterator) Valid() bool { return it.t != nil && it.d < len(it.t.dir) }

// Entry returns the current entry. The iterator must be valid.
func (it *Iterator) Entry() Entry { return it.t.entry(it.slot()) }

// Prefix returns the prefix of the current entry's key, as stored.
func (it *Iterator) Prefix() kv.Prefix { return it.slot().prefix }

// Next advances the iterator.
func (it *Iterator) Next() {
	if it.i++; it.i == int(it.t.dir[it.d].n) {
		it.d, it.i = it.d+1, 0
	}
}
