package vlog

import (
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
	tailSeg := l.TailSegment()
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
// flag, and encoded length. Iteration stops at the first zero byte where
// a header would start (padding), at a record the image does not hold to
// its end (a truncated trailer), or when fn returns false. It is the one
// walker: ScanUsed and Replay are loops over it, and it reads a header
// with the decoder the record readers use.
func WalkImage(data []byte, fn func(pos int64, key, value []byte, tomb bool, recLen int) bool) {
	pos := int64(0)
	for pos < int64(len(data)) {
		h, ok, err := decodeHeader(data[pos:], int64(len(data))-pos)
		if !ok || err != nil {
			return
		}
		rec := data[pos+int64(h.HeaderLen()) : pos+int64(h.RecLen())]
		if !fn(pos, rec[:h.keyLen], rec[h.keyLen:], h.tomb, h.RecLen()) {
			return
		}
		pos += int64(h.RecLen())
	}
}

// ScanUsed returns the number of bytes at the start of a (possibly
// partial) segment image that hold valid records. A promoted backup uses
// it to find how much of its replicated RDMA log buffer is live tail
// data (§3.5): records are contiguous and the rest of the buffer is
// zeroed, so the first zero header byte terminates the scan.
func ScanUsed(data []byte) int64 {
	used := int64(0)
	WalkImage(data, func(pos int64, _, _ []byte, _ bool, recLen int) bool {
		used = pos + int64(recLen)
		return true
	})
	return used
}

// replaySegment hands fn the records of data from pos on. It returns
// false if fn stopped the replay.
func replaySegment(geo storage.Geometry, seg storage.SegmentID, data []byte, pos int64, fn ReplayFunc) bool {
	if pos > int64(len(data)) {
		return true
	}
	more := true
	WalkImage(data[pos:], func(p int64, key, value []byte, tomb bool, _ int) bool {
		more = fn(geo.Pack(seg, pos+p), kv.Pair{Key: key, Value: value}, tomb)
		return more
	})
	return more
}
