package vlog

import (
	"fmt"
	"slices"

	"tebis/internal/integrity"
	"tebis/internal/storage"
)

// AdoptSegment installs a sealed segment image that was produced
// elsewhere — the backup's value-log replication path writes the
// contents of its RDMA buffer here when the primary sends a flush-tail
// command (§3.2, step 2c). The segment is allocated on the local device,
// written, and appended to the log's segment list so replay and reads
// work exactly as for locally appended data. It returns the local
// segment ID (the backup records <primary seg, local seg> in its log
// map).
func (l *Log) AdoptSegment(data []byte) (storage.SegmentID, error) {
	if int64(len(data)) != l.geo.SegmentSize() {
		return storage.NilSegment, fmt.Errorf("vlog: adopt segment of %d bytes, want %d", len(data), l.geo.SegmentSize())
	}
	seg, err := l.dev.Alloc()
	if err != nil {
		return storage.NilSegment, err
	}
	if err := storage.WriteFramed(l.dev, l.geo.Pack(seg, 0), data, integrity.KindLog); err != nil {
		return storage.NilSegment, err
	}
	l.mu.Lock()
	l.segs = append(l.segs, seg)
	l.space.Store(seg, &segSpace{total: uint64(ScanUsed(data[:l.cap]))})
	l.mu.Unlock()
	return seg, nil
}

// AdoptSegmentAs is AdoptSegment for a segment the caller has already
// allocated (a backup's lazily resolved log-map entry). A segment adopted
// again moves to the end of the log, the order replay walks, and is
// written again only if its copy holds no record: a sealed segment's
// records never change, and readers may be reading a copy that has them.
func (l *Log) AdoptSegmentAs(seg storage.SegmentID, data []byte) error {
	if int64(len(data)) != l.geo.SegmentSize() {
		return fmt.Errorf("vlog: adopt segment of %d bytes, want %d", len(data), l.geo.SegmentSize())
	}
	sp := l.space.Load(seg)
	if sp == nil || sp.total == 0 {
		if err := storage.WriteFramed(l.dev, l.geo.Pack(seg, 0), data, integrity.KindLog); err != nil {
			return err
		}
		sp = &segSpace{total: uint64(ScanUsed(data[:l.cap]))}
	}
	l.mu.Lock()
	if i := slices.Index(l.segs, seg); i >= 0 {
		l.segs = slices.Delete(l.segs, i, i+1)
	}
	l.segs = append(l.segs, seg)
	l.space.Store(seg, sp)
	l.mu.Unlock()
	return nil
}

// AdoptTail overwrites the in-memory tail with data, so a promoted
// backup resumes appending exactly where the failed primary stopped:
// its RDMA buffer holds the unflushed tail replica (§3.5). The tail
// keeps its local segment ID (which the backup's log map already maps).
func (l *Log) AdoptTail(tailSeg storage.SegmentID, data []byte) error {
	if int64(len(data)) > l.geo.SegmentSize() {
		return fmt.Errorf("vlog: adopt tail of %d bytes exceeds segment size", len(data))
	}
	if tailSeg == storage.NilSegment {
		return fmt.Errorf("vlog: adopt tail into the nil segment")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tailSeg.Store(uint32(tailSeg))
	if l.tailBuf == nil {
		l.tailBuf = make([]byte, l.geo.SegmentSize())
	} else {
		clear(l.tailBuf)
	}
	copy(l.tailBuf, data)
	l.tailLen = int64(len(data))
	l.tailDead = 0
	return nil
}
