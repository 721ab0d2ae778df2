package btree

import (
	"encoding/binary"
	"fmt"

	"tebis/internal/storage"
)

// SegmentMapper translates a primary segment number to the local
// (backup) segment number. Implementations allocate lazily, so a pointer
// into a segment not mapped yet resolves — the segment being rewritten
// itself, whose nodes point at one another (§3.3).
type SegmentMapper func(storage.SegmentID) (storage.SegmentID, error)

// RewriteSegment rewrites, in place, every device offset inside a raw
// segment image of a level — leaves and index nodes alike — received
// from a primary:
//
//   - child pointers in index nodes (leftmost + one per pivot) are
//     rebased through mapIndex (the index segment map), and
//   - value-log offsets in leaf rows are rebased through mapLog (the
//     log segment map), keeping each row's tombstone bit.
//
// The rewrite replaces only the high-order segment bits of each offset,
// keeping the in-segment offset — the O(1)-per-pointer translation the
// paper describes. It returns the number of pointers rewritten, which
// feeds the cycles/op cost model (Table 3, "Rewrite index"). A value-log
// offset the map moves to 2⁴⁷ or beyond fails with ErrOffsetRange.
//
// data must be a whole number of node blocks (as emitted by Builder).
func RewriteSegment(data []byte, nodeSize int, geo storage.Geometry, mapIndex, mapLog SegmentMapper) (pointers int, err error) {
	return RewriteLevelSegment(data, nodeSize, geo, mapIndex, mapLog, nil)
}

// RewriteLevelSegment is RewriteSegment for a segment of a level being
// received: it also adds every leaf entry's prefix to filter, the pass
// that rebases the entries' offsets being the one that already reads
// them, so a level's segments build its filter with nothing shipped
// for it. A nil filter collects nothing.
func RewriteLevelSegment(data []byte, nodeSize int, geo storage.Geometry, mapIndex, mapLog SegmentMapper, filter *FilterCollector) (pointers int, err error) {
	if nodeSize < minNodeSize {
		return 0, fmt.Errorf("%w: node size %d", ErrCorruptNode, nodeSize)
	}
	if len(data) == 0 || len(data)%nodeSize != 0 {
		return 0, fmt.Errorf("%w: segment image of %d bytes is not node-aligned", ErrCorruptNode, len(data))
	}
	for base := 0; base < len(data); base += nodeSize {
		block := data[base : base+nodeSize]
		switch block[0] {
		case kindFree:
			// Builders fill node slots sequentially, so a free slot
			// marks the end of the segment's used portion (full-image
			// shipping during backup state transfer hits this).
			return pointers, nil
		case kindLeaf:
			n, err := rewriteLeaf(block, geo, mapLog, filter)
			if err != nil {
				return pointers, err
			}
			pointers += n
		case kindIndex:
			n, err := rewriteIndex(block, geo, mapIndex)
			if err != nil {
				return pointers, err
			}
			pointers += n
		default:
			return pointers, fmt.Errorf("%w: node kind %d at block %d", ErrCorruptNode, block[0], base/nodeSize)
		}
	}
	return pointers, nil
}

func rewriteLeaf(block []byte, geo storage.Geometry, mapLog SegmentMapper, filter *FilterCollector) (int, error) {
	l, err := leafOf(block)
	if err != nil {
		return 0, err
	}
	if filter != nil {
		filter.addLeaf(&l)
	}
	for i := 0; i < l.count; i++ {
		field := l.field(i)
		v := getU48(field)
		off, err := rebase(storage.Offset(v&^leafTombstone), geo, mapLog)
		if err == nil && off > maxLeafOffset {
			err = fmt.Errorf("%w: rebased to %#x", ErrOffsetRange, off)
		}
		if err != nil {
			return i, fmt.Errorf("leaf entry %d: %w", i, err)
		}
		putU48(field, uint64(off)|v&leafTombstone)
	}
	return l.count, nil
}

func rewriteIndex(block []byte, geo storage.Geometry, mapIndex SegmentMapper) (int, error) {
	count := int(binary.LittleEndian.Uint16(block[1:3]))
	if err := rebaseField(block[nodeHdrSize:nodeHdrSize+8], geo, mapIndex); err != nil {
		return 0, fmt.Errorf("leftmost child: %w", err)
	}
	rewritten := 1
	pos := indexFixedSize
	for i := 0; i < count; i++ {
		if pos+2 > len(block) {
			return rewritten, fmt.Errorf("%w: pivot %d past block end", ErrCorruptNode, i)
		}
		plen := int(binary.LittleEndian.Uint16(block[pos:]))
		pos += 2 + plen
		if pos+8 > len(block) {
			return rewritten, fmt.Errorf("%w: child %d past block end", ErrCorruptNode, i)
		}
		if err := rebaseField(block[pos:pos+8], geo, mapIndex); err != nil {
			return rewritten, fmt.Errorf("child %d: %w", i, err)
		}
		rewritten++
		pos += 8
	}
	return rewritten, nil
}

// rebaseField rewrites one little-endian 8-byte offset in place through m.
func rebaseField(field []byte, geo storage.Geometry, m SegmentMapper) error {
	off, err := rebase(storage.Offset(binary.LittleEndian.Uint64(field)), geo, m)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(field, uint64(off))
	return nil
}

// rebase moves off to the segment m maps its own to. An offset whose
// segment number does not fit a SegmentID names no segment, and would
// lose its high bits on the way: it is corrupt.
func rebase(off storage.Offset, geo storage.Geometry, m SegmentMapper) (storage.Offset, error) {
	seg := geo.Segment(off)
	if geo.Rebase(off, seg) != off {
		return 0, fmt.Errorf("%w: offset %#x names no segment", ErrCorruptNode, off)
	}
	local, err := m(seg)
	if err != nil {
		return 0, err
	}
	return geo.Rebase(off, local), nil
}
