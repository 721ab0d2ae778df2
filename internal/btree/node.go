// Package btree implements the segment-serialized B+ tree Tebis uses for
// every on-device LSM level (Figure 3 of the paper).
//
// Leaves hold <key prefix, value-log device offset> pairs, stored by
// column: the key bytes every entry of a leaf starts and ends with once,
// then a fixed-width row per entry. Index nodes hold variable-size pivot
// keys plus the device offsets of their children. All nodes are
// fixed-size blocks packed into fixed-size device segments, so every
// pointer in the tree is a device offset whose high-order bits name a
// segment — the property the Send-Index rewrite relies on.
//
// The Builder constructs a tree bottom-up and left-to-right from a
// sorted stream, emitting each of the level's segments the moment it seals.
// That incremental emission is exactly the hook the primary uses to ship
// the index to backups while the compaction is still running (§3.3).
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

// Node kinds, stored in the first byte of every node block. Kind 1 was
// the leaf of fixed 21-byte entries that the columnar leaf replaced; a
// block of that kind is refused like any unknown kind, never misread.
const (
	kindFree  = 0
	kindIndex = 2
	kindLeaf  = 3
)

// IsLeaf reports whether node, one node of a segment image, is a leaf:
// a level's segments hold its leaves and index nodes alike, so only a
// node's header tells them apart.
func IsLeaf(node []byte) bool { return len(node) > 0 && node[0] == kindLeaf }

// nodeHdrSize is the fixed node header: kind (1) + entry count (2) +
// reserved (5) for an index node; kind + count + head (1) + tail (1) +
// reserved (3) for a leaf.
const nodeHdrSize = 8

// minNodeSize is the smallest node block the package builds or rewrites.
const minNodeSize = 64

// A leaf block is
//
//	[kind][count u16][head u8][tail u8][reserved 3]
//	[head key bytes every entry starts with][tail key bytes every entry ends with]
//	count × [12-head-tail key bytes][offset, 6 bytes little-endian]
//
// and zero padding. An offset field holds the value-log offset in its low
// 47 bits (128 TiB of device) and the tombstone in bit 47. When every
// prefix of a leaf is the same, head is 12 and the rows are offsets only.
const (
	leafOffSize   = 6
	leafTombstone = 1 << 47
	// leafTombByte is the tombstone bit within the field's top byte.
	leafTombByte = leafTombstone >> 40
	// maxLeafOffset is the largest value-log offset a leaf can hold.
	maxLeafOffset = leafTombstone - 1
	// maxLeafCount is what the count field can say.
	maxLeafCount = 1<<16 - 1
)

// indexFixedSize is the index node header plus the leftmost child
// pointer.
const indexFixedSize = nodeHdrSize + 8

// Errors reported by the package.
var (
	ErrCorruptNode = errors.New("btree: corrupt node block")
	ErrKeyTooLarge = errors.New("btree: pivot key too large for node size")
	// ErrOffsetRange marks a value-log offset of 2⁴⁷ or more, which a
	// leaf's offset field cannot hold: the builder and the rewrite refuse
	// it rather than truncate it.
	ErrOffsetRange = errors.New("btree: value-log offset past a leaf's 47 bits")
)

// LeafEntry is one decoded leaf slot.
type LeafEntry struct {
	Prefix    kv.Prefix
	ValueOff  storage.Offset
	Tombstone bool
}

// leaf is a leaf block read as its columns, every slice in place.
type leaf struct {
	count      int
	head, tail []byte // the key bytes every entry starts and ends with
	mid        int    // key bytes per row
	rows       []byte // count rows of mid + leafOffSize bytes
}

// Why leafOf refuses a block. They are values, not built per call:
// PackLeaf asks leafOf about every page of an image, and most pages of a
// value-log segment are no leaf.
var (
	errNotLeaf     = fmt.Errorf("%w: not a leaf", ErrCorruptNode)
	errLeafColumns = fmt.Errorf("%w: leaf head and tail exceed the %d-byte prefix", ErrCorruptNode, kv.PrefixSize)
	errLeafRows    = fmt.Errorf("%w: leaf rows run past the block", ErrCorruptNode)
)

// leafOf reads block as a leaf, checking that its columns fit it.
func leafOf(block []byte) (leaf, error) {
	if len(block) < nodeHdrSize || block[0] != kindLeaf {
		return leaf{}, errNotLeaf
	}
	count, head, tail := leafCount(block), int(block[3]), int(block[4])
	if head+tail > kv.PrefixSize {
		return leaf{}, errLeafColumns
	}
	start, end := nodeHdrSize+head+tail, leafSize(count, head, tail)
	if end > len(block) {
		return leaf{}, errLeafRows
	}
	return leaf{
		count: count,
		head:  block[nodeHdrSize : nodeHdrSize+head],
		tail:  block[nodeHdrSize+head : start],
		mid:   kv.PrefixSize - head - tail,
		rows:  block[start:end],
	}, nil
}

// leafSize returns the bytes a leaf of count rows with the given shared
// head and tail takes.
func leafSize(count, head, tail int) int {
	return nodeHdrSize + head + tail + count*(kv.PrefixSize-head-tail+leafOffSize)
}

// middle returns the key bytes of row i, in place.
func (l *leaf) middle(i int) []byte {
	off := i * (l.mid + leafOffSize)
	return l.rows[off : off+l.mid]
}

// field returns the offset field of row i, in place.
func (l *leaf) field(i int) []byte {
	off := i*(l.mid+leafOffSize) + l.mid
	return l.rows[off : off+leafOffSize]
}

// entry decodes row i.
func (l *leaf) entry(i int) LeafEntry {
	var e LeafEntry
	n := copy(e.Prefix[:], l.head)
	copy(e.Prefix[n:], l.middle(i))
	copy(e.Prefix[kv.PrefixSize-len(l.tail):], l.tail)
	v := getU48(l.field(i))
	e.ValueOff = storage.Offset(v &^ leafTombstone)
	e.Tombstone = v&leafTombstone != 0
	return e
}

// seek returns the index of the first entry whose prefix is >= p (count
// when there is none), and whether entries from there on can carry
// exactly p: only if p has the page's head and tail. p is compared with
// the head and tail once; rows are compared by their middle bytes.
func (l *leaf) seek(p *kv.Prefix) (i int, tie bool) {
	if c := bytes.Compare(p[:len(l.head)], l.head); c != 0 {
		if c < 0 {
			return 0, false
		}
		return l.count, false
	}
	// Every entry ends in the same tail, so an entry whose middle equals
	// p's is >= p exactly when p's tail is <= the page's.
	tailAbove := bytes.Compare(p[kv.PrefixSize-len(l.tail):], l.tail)
	want := p[len(l.head) : len(l.head)+l.mid]
	lo, hi := 0, l.count
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c := bytes.Compare(l.middle(m), want); c < 0 || (c == 0 && tailAbove > 0) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, tailAbove == 0
}

// carries reports whether row i's prefix is p, for a p whose head and
// tail are the page's (seek said tie).
func (l *leaf) carries(i int, p *kv.Prefix) bool {
	return bytes.Equal(l.middle(i), p[len(l.head):len(l.head)+l.mid])
}

// leafCount returns the count field of a node block.
func leafCount(block []byte) int {
	return int(binary.LittleEndian.Uint16(block[1:3]))
}

// setNodeHeader initializes a node block header.
func setNodeHeader(block []byte, kind byte, count int) {
	block[0] = kind
	binary.LittleEndian.PutUint16(block[1:3], uint16(count))
}

func getU48(b []byte) uint64 {
	return uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint16(b[4:]))<<32
}

func putU48(b []byte, v uint64) {
	binary.LittleEndian.PutUint32(b, uint32(v))
	binary.LittleEndian.PutUint16(b[4:], uint16(v>>32))
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
