package btree

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"tebis/internal/kv"
)

// The packed form of a leaf is the ship codec's wire form of it
// (internal/shipcodec). A leaf is already columnar on the device
// (node.go); on the wire it narrows its offset column to the bytes the
// page's offsets need, and carries tombstones as a flags column, and only
// when the page holds one:
//
//	[count u16][head u8][tail u8][width u8, bit 7: flags column follows]
//	[head shared leading key bytes][tail shared trailing key bytes]
//	count × [12-head-tail key bytes][width low offset bytes, little-endian]
//	count × [flags u8: 1 for a tombstone]   (only with bit 7 set)
//
// It never reaches a device.
const (
	packHdrSize   = 5
	packFlagsBit  = 0x80
	packWidthMask = 0x7f
)

// PackLeaf appends the packed form of page, one whole node block, to dst.
// It accepts exactly the blocks UnpackLeaf rebuilds bit for bit: a leaf
// with at least one entry whose rows fit the block, whose reserved header
// bytes and trailing padding are zero. Anything else — an index node, a
// free block, bytes that are no node at all — is refused: dst comes back
// unchanged and ok is false.
func PackLeaf(dst, page []byte) (out []byte, ok bool) {
	l, err := leafOf(page)
	if err != nil || l.count == 0 || page[5]|page[6]|page[7] != 0 {
		return dst, false
	}
	for _, b := range page[leafSize(l.count, len(l.head), len(l.tail)):] {
		if b != 0 {
			return dst, false
		}
	}

	var offs uint64
	for i := 0; i < l.count; i++ {
		offs |= getU48(l.field(i))
	}
	width := (bits.Len64(offs&^leafTombstone) + 7) / 8
	row := l.mid + width
	size := packHdrSize + len(l.head) + len(l.tail) + l.count*row
	flags := offs&leafTombstone != 0
	if flags {
		size += l.count
	}

	dst = slices.Grow(dst, size)
	out = dst[len(dst) : len(dst)+size]
	binary.LittleEndian.PutUint16(out, uint16(l.count))
	out[2], out[3], out[4] = byte(len(l.head)), byte(len(l.tail)), byte(width)
	p := packHdrSize
	p += copy(out[p:], l.head)
	p += copy(out[p:], l.tail)
	var off [8]byte
	for i := 0; i < l.count; i++ {
		copy(out[p:], l.middle(i))
		binary.LittleEndian.PutUint64(off[:], getU48(l.field(i))&^leafTombstone)
		copy(out[p+l.mid:p+row], off[:width])
		p += row
	}
	if flags {
		out[4] |= packFlagsBit
		for i := 0; i < l.count; i++ {
			out[p] = byte(getU48(l.field(i)) >> 47)
			p++
		}
	}
	return dst[:len(dst)+size], true
}

// UnpackLeaf rebuilds into page, one whole node block, the leaf whose
// packed form starts src, and returns how many bytes of src that form
// took. Every byte of page is written. src is a remote peer's bytes: a
// form that is cut short, names more entries than page holds, columns
// wider than an entry, an offset past the field or a flag other than a
// tombstone fails with ErrCorruptNode before page is touched, and
// whatever is accepted is a block PackLeaf accepts.
func UnpackLeaf(page, src []byte) (n int, err error) {
	if len(src) < packHdrSize {
		return 0, fmt.Errorf("%w: %d-byte packed leaf", ErrCorruptNode, len(src))
	}
	count := int(binary.LittleEndian.Uint16(src))
	head, tail, width := int(src[2]), int(src[3]), int(src[4]&packWidthMask)
	hasFlags := src[4]&packFlagsBit != 0
	if count == 0 || head+tail > kv.PrefixSize || width > leafOffSize {
		return 0, fmt.Errorf("%w: packed leaf of %d entries, columns head %d tail %d width %d", ErrCorruptNode, count, head, tail, width)
	}
	if leafSize(count, head, tail) > len(page) {
		return 0, fmt.Errorf("%w: packed leaf of %d entries for a %d-byte block", ErrCorruptNode, count, len(page))
	}
	mid := kv.PrefixSize - head - tail
	row := mid + width
	size := packHdrSize + head + tail + count*row
	if hasFlags {
		size += count
	}
	if len(src) < size {
		return 0, fmt.Errorf("%w: packed leaf needs %d bytes, %d left", ErrCorruptNode, size, len(src))
	}
	rows := src[packHdrSize+head+tail : packHdrSize+head+tail+count*row]
	var flags []byte
	if hasFlags {
		flags = src[size-count : size]
	}
	// What a device row cannot say: an offset into the tombstone bit, a
	// flag that is not one.
	if width == leafOffSize {
		for q := row - 1; q < len(rows); q += row {
			if rows[q]&leafTombByte != 0 {
				return 0, fmt.Errorf("%w: packed offset past 47 bits", ErrCorruptNode)
			}
		}
	}
	for _, f := range flags {
		if f > 1 {
			return 0, fmt.Errorf("%w: packed leaf flag %#x", ErrCorruptNode, f)
		}
	}

	clear(page)
	setNodeHeader(page, kindLeaf, count)
	page[3], page[4] = byte(head), byte(tail)
	p := nodeHdrSize + copy(page[nodeHdrSize:], src[packHdrSize:packHdrSize+head+tail])
	for i := 0; i < count; i++ {
		r := rows[i*row:]
		copy(page[p:p+mid], r[:mid])
		copy(page[p+mid:p+mid+width], r[mid:row])
		if flags != nil && flags[i] != 0 {
			page[p+mid+leafOffSize-1] |= leafTombByte
		}
		p += mid + leafOffSize
	}
	return size, nil
}
