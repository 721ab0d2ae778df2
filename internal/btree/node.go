// Package btree implements the segment-serialized B+ tree Tebis uses for
// every on-device LSM level (Figure 3 of the paper).
//
// Leaves hold <key prefix, value-log device offset> pairs; index nodes
// hold variable-size pivot keys plus the device offsets of their
// children. All nodes are fixed-size blocks packed into fixed-size
// device segments, so every pointer in the tree is a device offset whose
// high-order bits name a segment — the property the Send-Index rewrite
// relies on.
//
// The Builder constructs a tree bottom-up and left-to-right from a
// sorted stream, emitting each index/leaf segment the moment it seals.
// That incremental emission is exactly the hook the primary uses to ship
// the index to backups while the compaction is still running (§3.3).
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

// Node kinds, stored in the first byte of every node block.
const (
	kindFree  = 0
	kindLeaf  = 1
	kindIndex = 2
)

// nodeHdrSize is the fixed node header: kind (1) + entry count (2) +
// reserved (5).
const nodeHdrSize = 8

// leafEntrySize is the fixed size of one leaf entry: key prefix +
// value-log device offset (8) + flags (1).
const leafEntrySize = kv.PrefixSize + 9

// leafFlagTombstone marks a deleted key in a leaf entry.
const leafFlagTombstone = 1

// indexFixedSize is the index node header plus the leftmost child
// pointer.
const indexFixedSize = nodeHdrSize + 8

// Errors reported by the package.
var (
	ErrCorruptNode = errors.New("btree: corrupt node block")
	ErrKeyTooLarge = errors.New("btree: pivot key too large for node size")
)

// LeafEntry is one decoded leaf slot.
type LeafEntry struct {
	Prefix    kv.Prefix
	ValueOff  storage.Offset
	Tombstone bool
}

// leafCapacity returns how many entries fit in a leaf of nodeSize bytes.
func leafCapacity(nodeSize int) int {
	return (nodeSize - nodeHdrSize) / leafEntrySize
}

// encodeLeafEntry writes e into buf.
func encodeLeafEntry(buf []byte, e LeafEntry) {
	copy(buf[:kv.PrefixSize], e.Prefix[:])
	binary.LittleEndian.PutUint64(buf[kv.PrefixSize:], uint64(e.ValueOff))
	var flags byte
	if e.Tombstone {
		flags = leafFlagTombstone
	}
	buf[kv.PrefixSize+8] = flags
}

// decodeLeafEntry reads entry i from a leaf block.
func decodeLeafEntry(block []byte, i int) LeafEntry {
	off := nodeHdrSize + i*leafEntrySize
	var e LeafEntry
	copy(e.Prefix[:], block[off:off+kv.PrefixSize])
	e.ValueOff = storage.Offset(binary.LittleEndian.Uint64(block[off+kv.PrefixSize:]))
	e.Tombstone = block[off+kv.PrefixSize+8]&leafFlagTombstone != 0
	return e
}

// leafPrefix returns the key prefix of entry i of a leaf block, in place.
func leafPrefix(block []byte, i int) []byte {
	off := nodeHdrSize + i*leafEntrySize
	return block[off : off+kv.PrefixSize]
}

// leafCount returns the number of entries in a leaf block.
func leafCount(block []byte) int {
	return int(binary.LittleEndian.Uint16(block[1:3]))
}

// setNodeHeader initializes a node block header.
func setNodeHeader(block []byte, kind byte, count int) {
	block[0] = kind
	binary.LittleEndian.PutUint16(block[1:3], uint16(count))
}

// indexNode is a decoded index node: child[0] is the leftmost child;
// pivot[i] separates child[i] (keys < pivot[i]) from child[i+1]
// (keys >= pivot[i]).
type indexNode struct {
	pivots   [][]byte
	children []storage.Offset
}

// decodeIndexNode parses an index node block.
func decodeIndexNode(block []byte) (indexNode, error) {
	count := int(binary.LittleEndian.Uint16(block[1:3]))
	n := indexNode{
		pivots:   make([][]byte, 0, count),
		children: make([]storage.Offset, 0, count+1),
	}
	n.children = append(n.children, storage.Offset(binary.LittleEndian.Uint64(block[nodeHdrSize:])))
	pos := indexFixedSize
	for i := 0; i < count; i++ {
		if pos+2 > len(block) {
			return indexNode{}, fmt.Errorf("%w: pivot %d header past block end", ErrCorruptNode, i)
		}
		plen := int(binary.LittleEndian.Uint16(block[pos:]))
		pos += 2
		if pos+plen+8 > len(block) {
			return indexNode{}, fmt.Errorf("%w: pivot %d body past block end", ErrCorruptNode, i)
		}
		n.pivots = append(n.pivots, block[pos:pos+plen])
		pos += plen
		n.children = append(n.children, storage.Offset(binary.LittleEndian.Uint64(block[pos:])))
		pos += 8
	}
	return n, nil
}

// route returns the index of the child to descend into for key.
func (n indexNode) route(key []byte) int {
	// Find the last pivot <= key; child index is pivot index + 1.
	lo, hi := 0, len(n.pivots)
	for lo < hi {
		mid := (lo + hi) / 2
		if kv.Compare(n.pivots[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// indexEntrySize returns the encoded size of one pivot entry.
func indexEntrySize(pivot []byte) int {
	return 2 + len(pivot) + 8
}
