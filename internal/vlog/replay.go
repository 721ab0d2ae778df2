package vlog

import (
	"encoding/binary"
	"errors"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

// ErrTrimmed reports a replay start offset that is no longer in the
// live log: GC released its segment. Nothing was replayed; the
// caller must decide between a full replay (promotion, where an empty
// L0 would silently lose the suffix) and treating the log as drained.
var ErrTrimmed = errors.New("vlog: replay start offset trimmed")

// ReplayFunc receives one decoded record during replay, with its device
// offset. Returning false stops the replay early.
type ReplayFunc func(off storage.Offset, pair kv.Pair, tombstone bool) bool

// Replay scans the log from the given offset (inclusive) through the end
// of the in-memory tail, invoking fn for every record in append order.
// A NilOffset start replays the whole live log. A from inside a
// released segment returns ErrTrimmed without invoking fn.
//
// This is the mechanism a promoted backup uses to reconstruct L0: the
// new primary replays the value-log suffix past the last compaction
// watermark (§3.5).
func (l *Log) Replay(from storage.Offset, fn ReplayFunc) error {
	l.mu.Lock()
	segs := append([]storage.SegmentID(nil), l.segs...)
	tailSeg := l.tailSeg
	tail := append([]byte(nil), l.tailBuf[:l.tailLen]...)
	l.mu.Unlock()

	startSeg := l.geo.Segment(from)
	startWithin := l.geo.Within(from)
	started := from == storage.NilOffset

	buf := make([]byte, l.geo.SegmentSize())
	for _, seg := range segs {
		if !started {
			if seg != startSeg {
				continue
			}
			started = true
		}
		if err := l.dev.ReadAt(l.geo.Pack(seg, 0), buf); err != nil {
			return err
		}
		pos := int64(0)
		if seg == startSeg {
			pos = startWithin
		}
		if !replaySegment(l.geo, seg, buf, pos, fn) {
			return nil
		}
	}

	// The in-memory tail.
	pos := int64(0)
	if !started {
		if tailSeg != startSeg {
			// The start segment is neither sealed-and-live nor the
			// tail: GC released it. Returning nil here would be a
			// silent empty replay.
			return ErrTrimmed
		}
		pos = startWithin
	}
	replaySegment(l.geo, tailSeg, tail, pos, fn)
	return nil
}

// WalkImage iterates the records of a raw (possibly partial) segment
// image, invoking fn with each record's position, key, value, tombstone
// flag, and encoded length. Iteration stops at the first zero key length
// (padding), at a truncated trailer, or when fn returns false.
func WalkImage(data []byte, fn func(pos int64, key, value []byte, tomb bool, recLen int) bool) {
	pos := int64(0)
	for pos+recHdrSize <= int64(len(data)) {
		keyLen := binary.LittleEndian.Uint32(data[pos : pos+4])
		if keyLen == 0 {
			return
		}
		valLen := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
		tomb := valLen == tombstoneLen
		vl := int64(valLen)
		if tomb {
			vl = 0
		}
		end := pos + recHdrSize + int64(keyLen) + vl
		if end > int64(len(data)) {
			return
		}
		rec := data[pos+recHdrSize : end]
		if !fn(pos, rec[:keyLen], rec[keyLen:], tomb, int(end-pos)) {
			return
		}
		pos = end
	}
}

// ScanUsed returns the number of bytes at the start of a (possibly
// partial) segment image that hold valid records. A promoted backup uses
// it to find how much of its replicated RDMA log buffer is live tail
// data (§3.5): records are contiguous and the rest of the buffer is
// zeroed, so the first zero key length terminates the scan.
func ScanUsed(data []byte) int64 {
	pos := int64(0)
	for pos+recHdrSize <= int64(len(data)) {
		keyLen := binary.LittleEndian.Uint32(data[pos : pos+4])
		if keyLen == 0 {
			return pos
		}
		valLen := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
		vl := int64(valLen)
		if valLen == tombstoneLen {
			vl = 0
		}
		end := pos + recHdrSize + int64(keyLen) + vl
		if end > int64(len(data)) {
			return pos
		}
		pos = end
	}
	return pos
}

// replaySegment decodes records from data starting at pos. It returns
// false if fn stopped the replay.
func replaySegment(geo storage.Geometry, seg storage.SegmentID, data []byte, pos int64, fn ReplayFunc) bool {
	for pos+recHdrSize <= int64(len(data)) {
		keyLen := binary.LittleEndian.Uint32(data[pos : pos+4])
		if keyLen == 0 {
			// Zero padding: rest of segment is unused.
			return true
		}
		valLen := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
		tomb := valLen == tombstoneLen
		vl := int64(valLen)
		if tomb {
			vl = 0
		}
		end := pos + recHdrSize + int64(keyLen) + vl
		if end > int64(len(data)) {
			return true // truncated trailer; treat as padding
		}
		rec := data[pos+recHdrSize : end]
		pair := kv.Pair{Key: rec[:keyLen], Value: rec[keyLen:]}
		if !fn(geo.Pack(seg, pos), pair, tomb) {
			return false
		}
		pos = end
	}
	return true
}
