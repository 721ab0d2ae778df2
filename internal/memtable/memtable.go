// Package memtable implements the in-memory L0 level of the Tebis LSM
// tree.
//
// L0 holds <key, value-log offset> entries in a skiplist, sorted by key.
// Its role (per the paper) is to amortize I/O: it keeps recent updates
// sorted in memory so the L0→L1 compaction streams them in order. In the
// Send-Index configuration only the primary keeps an L0; backups drop it
// entirely, which is where the scheme's memory savings come from (§3.3,
// §5.5).
package memtable

import (
	"math/rand"
	"sync"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

const (
	maxHeight = 16
	branching = 4
)

// Entry is one L0 record: the key plus the value-log location of the
// full record (or a tombstone).
type Entry struct {
	Key       []byte
	Off       storage.Offset
	Tombstone bool
}

// node carries its key's prefix beside the pointers a search follows,
// so that ordering two keys touches the key bytes themselves — another
// cache line, behind another pointer — only when the prefixes tie: the
// argument kv.MakePrefix makes for a leaf, applied to L0.
type node struct {
	prefix kv.Prefix
	entry  Entry
	next   []*node
}

// before reports whether n's key orders before key, whose prefix is
// prefix.
func (n *node) before(prefix kv.Prefix, key []byte) bool {
	if c := n.prefix.Compare(prefix); c != 0 {
		return c < 0
	}
	return kv.Compare(n.entry.Key, key) < 0
}

// Table is a sorted in-memory map from key to value-log offset.
// Reads may run concurrently with each other; writes are serialized by
// the caller (the LSM engine holds its own lock), matching Kreon's
// single-writer L0 discipline. A Table is safe for concurrent readers
// only when no writer is active; the LSM engine enforces that with a
// reader-writer lock.
type Table struct {
	head   *node
	height int
	count  int
	bytes  int64
	rnd    *rand.Rand
	mu     sync.Mutex // guards rnd only (Insert callers are serialized)
}

// New returns an empty table. The seed fixes the skiplist shape for
// reproducible benchmarks.
func New(seed int64) *Table {
	return &Table{
		head:   &node{next: make([]*node, maxHeight)},
		height: 1,
		rnd:    rand.New(rand.NewSource(seed)),
	}
}

func (t *Table) randomHeight() int {
	t.mu.Lock()
	h := 1
	for h < maxHeight && t.rnd.Intn(branching) == 0 {
		h++
	}
	t.mu.Unlock()
	return h
}

// findGE returns the first node with key >= key, whose prefix is
// prefix, filling prev with the rightmost node before it at every level
// when prev is non-nil.
func (t *Table) findGE(prefix kv.Prefix, key []byte, prev []*node) *node {
	x := t.head
	for level := t.height - 1; level >= 0; level-- {
		for n := x.next[level]; n != nil && n.before(prefix, key); n = x.next[level] {
			x = n
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// Insert adds or overwrites key with the given value-log offset.
// It reports whether the key was new.
func (t *Table) Insert(key []byte, off storage.Offset, tombstone bool) bool {
	_, overwrote := t.InsertPrev(key, off, tombstone)
	return !overwrote
}

// InsertPrev adds or overwrites key with the given value-log offset and,
// on overwrite, returns the replaced entry — the hook the engine uses to
// charge the superseded record's bytes to the value log's dead-space
// ledger (an L0 in-place overwrite never reaches a compaction merge, so
// this is the only point its reclaim can be learned).
func (t *Table) InsertPrev(key []byte, off storage.Offset, tombstone bool) (prevEntry Entry, overwrote bool) {
	prev := make([]*node, maxHeight)
	for i := range prev {
		prev[i] = t.head
	}
	prefix := kv.MakePrefix(key)
	if n := t.findGE(prefix, key, prev); n != nil && kv.Compare(n.entry.Key, key) == 0 {
		prevEntry = n.entry
		n.entry.Off = off
		n.entry.Tombstone = tombstone
		return prevEntry, true
	}
	h := t.randomHeight()
	if h > t.height {
		t.height = h
	}
	n := &node{
		prefix: prefix,
		entry: Entry{
			Key:       append([]byte(nil), key...),
			Off:       off,
			Tombstone: tombstone,
		},
		next: make([]*node, h),
	}
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	t.count++
	t.bytes += int64(len(key)) + 16
	return Entry{}, false
}

// Get returns the entry for key, if present.
func (t *Table) Get(key []byte) (Entry, bool) {
	n := t.findGE(kv.MakePrefix(key), key, nil)
	if n != nil && kv.Compare(n.entry.Key, key) == 0 {
		return n.entry, true
	}
	return Entry{}, false
}

// Len returns the number of distinct keys.
func (t *Table) Len() int { return t.count }

// Bytes returns the approximate memory footprint of the table's entries.
func (t *Table) Bytes() int64 { return t.bytes }

// Iterator walks the table in ascending key order. It is a value: a
// scan keeps it in memory it already has.
type Iterator struct {
	n *node
}

// Iter returns an iterator positioned at the first entry.
func (t *Table) Iter() Iterator {
	return Iterator{n: t.head.next[0]}
}

// SeekGE returns an iterator positioned at the first entry with
// key >= the given key.
func (t *Table) SeekGE(key []byte) Iterator {
	return Iterator{n: t.findGE(kv.MakePrefix(key), key, nil)}
}

// Valid reports whether the iterator points at an entry.
func (it *Iterator) Valid() bool { return it.n != nil }

// Entry returns the current entry. The iterator must be valid.
func (it *Iterator) Entry() Entry { return it.n.entry }

// Prefix returns the prefix of the current entry's key, as stored.
func (it *Iterator) Prefix() kv.Prefix { return it.n.prefix }

// Next advances the iterator.
func (it *Iterator) Next() { it.n = it.n.next[0] }
