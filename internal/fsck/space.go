package fsck

import (
	"errors"
	"fmt"
	"sort"

	"tebis/internal/integrity"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// SpaceSegment is one value-log segment's byte accounting in a space
// report, in frame-sequence (log) order.
type SpaceSegment struct {
	// Seg is the device segment.
	Seg storage.SegmentID
	// Seq is the segment's frame sequence number (log position).
	Seq uint32
	// Total is the used payload bytes (records, excluding the frame).
	Total int64
	// Live is the bytes of records that are the newest for their key
	// and not tombstones — what GC relocation would have to move.
	Live int64
	// Dead is Total minus Live: overwritten records, superseded
	// tombstones, and the tombstones of deleted keys.
	Dead int64
}

// DeadRatio returns the segment's reclaimable fraction.
func (s SpaceSegment) DeadRatio() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Dead) / float64(s.Total)
}

// IndexSpace is a space report's account of the index: the segments
// framed as index, read off their trailers. The image keeps no
// manifest, so they are the levels live when it was written and any
// index segment freed since and not yet reused — recovery reclaims both.
type IndexSpace struct {
	// Segments is the number of index-framed segments.
	Segments int
	// Payload is the node bytes they hold.
	Payload int64
	// Slack is the usable capacity of those segments that holds no node:
	// Segments × usable capacity − Payload.
	Slack int64
}

// SpaceReport is the offline view of the engine's value-log space
// ledger (DESIGN.md "Value-log GC"), rebuilt purely from the sealed log
// frames — the same replay semantics recovery uses, so it reflects exactly
// what an engine opening this image would see — and of the slack in its
// index segments.
type SpaceReport struct {
	// Segments lists every sealed log segment oldest-first.
	Segments []SpaceSegment
	// Keys is the number of distinct live (non-deleted) keys.
	Keys int
	// Live and Dead aggregate the per-segment columns.
	Live int64
	// Dead is the total reclaimable bytes.
	Dead int64
	// Head is the offset of the oldest sealed record (NilOffset when
	// the image holds no sealed log segments).
	Head storage.Offset
	// Tail is the offset just past the newest sealed record — where the
	// engine would resume appending after the tail roll.
	Tail storage.Offset
	// Index accounts for the index-framed segments.
	Index IndexSpace
}

// Space builds a read-only space report for a device image. Unlike
// Run with Recover, nothing is reclaimed or truncated: torn and orphan
// segments are simply skipped, and a checksum failure on a sealed log
// segment is a hard error (the report would be a lie).
func Space(opt Options) (SpaceReport, error) {
	dev, err := storage.OpenFileDevice(opt.Path, opt.SegmentSize, 0)
	if err != nil {
		return SpaceReport{}, err
	}
	defer dev.Close()
	ver := storage.AsVerifying(dev)

	type logSeg struct {
		id  storage.SegmentID
		seq uint32
	}
	rep := SpaceReport{Head: storage.NilOffset, Tail: storage.NilOffset}
	cap := storage.UsableCapacity(ver)
	var segs []logSeg
	for _, seg := range ver.Segments() {
		t, err := ver.SegmentInfo(seg)
		if errors.Is(err, integrity.ErrNoFrame) {
			continue // torn seal: never acknowledged, not part of the log
		}
		if err != nil {
			return SpaceReport{}, fmt.Errorf("fsck: space: segment %d: %w", seg, err)
		}
		if t.Kind == integrity.KindIndex {
			rep.Index.Segments++
			rep.Index.Payload += int64(t.PayloadLen)
			rep.Index.Slack += cap - int64(t.PayloadLen)
			continue
		}
		if t.Kind != integrity.KindLog || t.Seq == 0 {
			continue // opaque frame, or a seal torn inside its trailer
		}
		if err := ver.VerifySegment(seg); err != nil {
			return SpaceReport{}, fmt.Errorf("fsck: space: segment %d: %w", seg, err)
		}
		segs = append(segs, logSeg{id: seg, seq: t.Seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	if len(segs) == 0 {
		return rep, nil
	}

	geo := ver.Geometry()
	images := make([][]byte, len(segs))
	for i, ls := range segs {
		buf := make([]byte, geo.SegmentSize())
		if err := ver.ReadAt(geo.Pack(ls.id, 0), buf); err != nil {
			return SpaceReport{}, fmt.Errorf("fsck: space: segment %d: %w", ls.id, err)
		}
		images[i] = buf[:cap]
	}

	// Pass 1: replay in log order to find the newest record per key —
	// the only copy reads would see after recovery.
	type loc struct {
		seg int
		pos int64
	}
	newest := make(map[string]loc)
	tombs := make(map[string]bool)
	for i := range segs {
		vlog.WalkImage(images[i], func(pos int64, key, _ []byte, tomb bool, _ int) bool {
			newest[string(key)] = loc{seg: i, pos: pos}
			tombs[string(key)] = tomb
			return true
		})
	}

	// Pass 2: classify every record byte.
	for i, ls := range segs {
		ss := SpaceSegment{Seg: ls.id, Seq: ls.seq}
		vlog.WalkImage(images[i], func(pos int64, key, _ []byte, tomb bool, recLen int) bool {
			ss.Total += int64(recLen)
			if !tomb && newest[string(key)] == (loc{seg: i, pos: pos}) {
				ss.Live += int64(recLen)
			}
			return true
		})
		ss.Dead = ss.Total - ss.Live
		rep.Segments = append(rep.Segments, ss)
		rep.Live += ss.Live
		rep.Dead += ss.Dead
	}
	for _, t := range tombs {
		if !t {
			rep.Keys++
		}
	}
	rep.Head = geo.Pack(segs[0].id, 0)
	last := len(segs) - 1
	rep.Tail = geo.Pack(segs[last].id, vlog.ScanUsed(images[last]))
	return rep, nil
}
