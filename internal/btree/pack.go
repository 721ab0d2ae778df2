package btree

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"tebis/internal/kv"
)

// A leaf block is 98 % fixed 21-byte <prefix, offset, flags> entries
// (node.go), sorted, and what repeats in it repeats by column: the key
// bytes every entry starts with, the key bytes every entry ends with
// (short keys are zero-padded; generated keys often share a tail), the
// high offset bytes a log of this size never sets, and a flags byte
// that is zero unless the page holds a tombstone. The packed form
// states each of those once per page and then carries what is left of
// every entry at a fixed width:
//
//	[count u16][head u8][tail u8][width u8, bit 7: flags column follows]
//	[head shared leading key bytes][tail shared trailing key bytes]
//	count × [12-head-tail key bytes][width low offset bytes, little-endian]
//	count × [flags u8]                      (only with bit 7 set)
//
// It is the ship codec's wire form of a leaf (internal/shipcodec) and
// never reaches a device.
const (
	packHdrSize   = 5
	packFlagsBit  = 0x80
	packWidthMask = 0x7f
)

// PackLeaf appends the packed form of page, one whole node block, to dst.
// It accepts exactly the blocks UnpackLeaf rebuilds bit for bit: a leaf
// with at least one entry and no more than the block holds, whose
// reserved header bytes and trailing padding are zero. Anything else —
// an index node, a free block, bytes that are no node at all — is
// refused: dst comes back unchanged and ok is false.
func PackLeaf(dst, page []byte) (out []byte, ok bool) {
	if len(page) < nodeHdrSize || page[0] != kindLeaf {
		return dst, false
	}
	count := leafCount(page)
	if count == 0 || count > leafCapacity(len(page)) {
		return dst, false
	}
	if page[3]|page[4]|page[5]|page[6]|page[7] != 0 {
		return dst, false
	}
	end := nodeHdrSize + count*leafEntrySize
	for _, b := range page[end:] {
		if b != 0 {
			return dst, false
		}
	}
	entries := page[nodeHdrSize:end]

	// What every entry shares with the first: a key byte position is
	// common to the page iff no entry differs from the first there, so
	// the shared head and tail are read off the OR of the differences,
	// checked against every entry rather than assumed from the order.
	firstHi, firstLo := binary.BigEndian.Uint64(entries), binary.BigEndian.Uint32(entries[8:])
	var diffHi, offs uint64
	var diffLo uint32
	var flags byte
	for e := entries; len(e) >= leafEntrySize; e = e[leafEntrySize:] {
		diffHi |= binary.BigEndian.Uint64(e) ^ firstHi
		diffLo |= binary.BigEndian.Uint32(e[8:]) ^ firstLo
		offs |= binary.LittleEndian.Uint64(e[kv.PrefixSize:])
		flags |= e[kv.PrefixSize+8]
	}
	head, tail := kv.PrefixSize, 0
	switch {
	case diffHi != 0:
		head = bits.LeadingZeros64(diffHi) / 8
		tail = 4 + bits.TrailingZeros64(diffHi)/8
		if diffLo != 0 {
			tail = bits.TrailingZeros32(diffLo) / 8
		}
	case diffLo != 0:
		head = 8 + bits.LeadingZeros32(diffLo)/8
		tail = bits.TrailingZeros32(diffLo) / 8
	}
	mid := kv.PrefixSize - head - tail
	width := (bits.Len64(offs) + 7) / 8
	row := mid + width
	size := packHdrSize + head + tail + count*row
	if flags != 0 {
		size += count
	}

	dst = slices.Grow(dst, size)
	out = dst[len(dst) : len(dst)+size]
	binary.LittleEndian.PutUint16(out, uint16(count))
	out[2], out[3], out[4] = byte(head), byte(tail), byte(width)
	p := packHdrSize
	p += copy(out[p:], entries[:head])
	p += copy(out[p:], entries[kv.PrefixSize-tail:kv.PrefixSize])
	for e := entries; len(e) >= leafEntrySize; e = e[leafEntrySize:] {
		copy(out[p:p+mid], e[head:])
		copy(out[p+mid:p+row], e[kv.PrefixSize:])
		p += row
	}
	if flags != 0 {
		out[4] |= packFlagsBit
		for e := entries; len(e) >= leafEntrySize; e = e[leafEntrySize:] {
			out[p] = e[kv.PrefixSize+8]
			p++
		}
	}
	return dst[:len(dst)+size], true
}

// UnpackLeaf rebuilds into page, one whole node block, the leaf whose
// packed form starts src, and returns how many bytes of src that form
// took. Every byte of page is written. src is a remote peer's bytes: a
// form that is cut short, names more entries than page holds or columns
// wider than an entry fails with ErrCorruptNode, and whatever is accepted
// is a block PackLeaf accepts.
func UnpackLeaf(page, src []byte) (n int, err error) {
	if len(src) < packHdrSize {
		return 0, fmt.Errorf("%w: %d-byte packed leaf", ErrCorruptNode, len(src))
	}
	count := int(binary.LittleEndian.Uint16(src))
	head, tail, width := int(src[2]), int(src[3]), int(src[4]&packWidthMask)
	hasFlags := src[4]&packFlagsBit != 0
	if count == 0 || count > leafCapacity(len(page)) {
		return 0, fmt.Errorf("%w: packed leaf of %d entries for a %d-byte block", ErrCorruptNode, count, len(page))
	}
	if head+tail > kv.PrefixSize || width > 8 {
		return 0, fmt.Errorf("%w: packed leaf columns head %d tail %d width %d", ErrCorruptNode, head, tail, width)
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

	clear(page)
	setNodeHeader(page, kindLeaf, count)
	// The key every entry starts from: the shared head and tail around a
	// gap its own bytes fill.
	var shared kv.Prefix
	copy(shared[:head], src[packHdrSize:])
	copy(shared[kv.PrefixSize-tail:], src[packHdrSize+head:])
	rows := src[packHdrSize+head+tail:]
	end := nodeHdrSize + count*leafEntrySize
	for e := page[nodeHdrSize:end]; len(e) >= leafEntrySize; e = e[leafEntrySize:] {
		copy(e[:kv.PrefixSize], shared[:])
		copy(e[head:head+mid], rows)
		copy(e[kv.PrefixSize:kv.PrefixSize+width], rows[mid:])
		rows = rows[row:]
	}
	if hasFlags {
		for i := 0; i < count; i++ {
			page[nodeHdrSize+i*leafEntrySize+kv.PrefixSize+8] = rows[i]
		}
	}
	return size, nil
}
