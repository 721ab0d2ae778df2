package vlog

import (
	"errors"
	"fmt"
	"slices"

	"tebis/internal/metrics"
	"tebis/internal/storage"
)

// ErrReclaimed reports a read of an offset whose segment GC has already
// released. The segment may have been re-allocated for new data, so
// serving the device bytes would silently return recycled garbage; the
// log refuses with a located error instead.
var ErrReclaimed = errors.New("vlog: record offset points into a reclaimed segment")

// segSpace is the per-segment space ledger: how many payload bytes the
// segment holds and how many of them are known dead (superseded or
// tombstoned, learned when the LSM drops the pointing index entry).
type segSpace struct {
	total uint64
	dead  uint64
}

// SegmentSpace is one sealed segment's space accounting, as reported by
// SpaceReport.
type SegmentSpace struct {
	Seg   storage.SegmentID
	Total uint64
	Dead  uint64
}

// DeadRatio returns the fraction of the segment's bytes known dead.
func (s SegmentSpace) DeadRatio() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Dead) / float64(s.Total)
}

// SpaceReport is a snapshot of the log's space ledger: per-segment
// live/dead bytes for every sealed live segment (oldest first), the
// tail's fill, and the cumulative bytes reclaimed so far. GC victim
// selection and the tebis_vlog_* gauges both read it.
type SpaceReport struct {
	// Segments lists the sealed live segments in append order.
	Segments []SegmentSpace
	// TailSeg/TailUsed/TailDead describe the in-memory tail.
	TailSeg  storage.SegmentID
	TailUsed uint64
	TailDead uint64
	// Live and Dead aggregate over sealed segments plus the tail.
	Live uint64
	Dead uint64
	// Trimmed is the cumulative payload bytes reclaimed by Release over
	// the log's lifetime.
	Trimmed uint64
}

// SpaceReport snapshots the space ledger.
func (l *Log) SpaceReport() SpaceReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := SpaceReport{
		TailSeg:  l.TailSegment(),
		TailUsed: uint64(l.tailLen),
		TailDead: l.tailDead,
		Trimmed:  l.trimmed,
	}
	for _, seg := range l.segs {
		sp := l.space.Load(seg)
		if sp == nil {
			sp = &segSpace{}
		}
		rep.Segments = append(rep.Segments, SegmentSpace{Seg: seg, Total: sp.total, Dead: sp.dead})
		rep.Live += sp.total - sp.dead
		rep.Dead += sp.dead
	}
	rep.Live += uint64(l.tailLen) - l.tailDead
	rep.Dead += l.tailDead
	return rep
}

// Families renders the report as the space-ledger metric families
// (DESIGN.md "Value-log GC"): live versus dead bytes across sealed
// segments and the tail, the cumulative bytes reclaimed by trims and GC
// releases, and the per-segment dead ratio — the input to the GC victim
// picker. They are exposed even when GC is disabled, so operators can
// see reclaimable space before turning GC on.
func (r SpaceReport) Families() []metrics.Family {
	ratios := metrics.Gauge("tebis_vlog_segment_dead_ratio",
		"Dead-byte fraction per sealed value-log segment (the GC victim cost signal).")
	for _, s := range r.Segments {
		ratios.Add(fmt.Sprintf(`segment="%d"`, s.Seg), s.DeadRatio())
	}
	return []metrics.Family{
		metrics.Gauge("tebis_vlog_live_bytes",
			"Live (referenced) record bytes across the value log.", metrics.Value(float64(r.Live))),
		metrics.Gauge("tebis_vlog_dead_bytes",
			"Dead (overwritten or deleted) record bytes still occupying the value log.", metrics.Value(float64(r.Dead))),
		metrics.Counter("tebis_vlog_trimmed_bytes_total",
			"Value-log bytes reclaimed by prefix trims and GC releases.", metrics.Value(float64(r.Trimmed))),
		ratios,
	}
}

// AddDead marks n payload bytes at off as dead: the record there is no
// longer the live version of its key. The LSM calls this when an index
// entry is dropped — an L0 in-place overwrite, a same-key discard during
// a compaction merge, or a tombstone eliminated at the last level. Dead
// bytes on already-reclaimed segments are ignored (the space is gone).
func (l *Log) AddDead(off storage.Offset, n int) {
	if n <= 0 {
		return
	}
	seg := l.geo.Segment(off)
	l.mu.Lock()
	defer l.mu.Unlock()
	if seg == l.TailSegment() {
		l.tailDead += uint64(n)
		if l.tailDead > uint64(l.tailLen) {
			l.tailDead = uint64(l.tailLen)
		}
		return
	}
	if sp := l.space.Load(seg); sp != nil {
		sp.dead += uint64(n)
		if sp.dead > sp.total {
			sp.dead = sp.total
		}
	}
}

// RecordLen returns the encoded on-log length of the record at off
// (header + key + value): ReadHeader for a caller with no scratch.
func (l *Log) RecordLen(off storage.Offset) (int, error) {
	h, err := l.ReadHeader(off, nil)
	if err != nil {
		return 0, err
	}
	return h.RecLen(), nil
}

// Release frees the given sealed segments wherever they sit in the log —
// the GC reclaim primitive, on the primary and (translated through the
// log map) on backups. A victim may be any sealed segment whose live
// records have been relocated to the tail; a log prefix is just one
// such set. Segments not currently live (already released or unknown)
// are skipped, making Release idempotent under crash-retry. The tail is
// never released.
//
// The caller (DB.GCOnce) must guarantee no index entry still points into
// the victims before calling; afterwards, reads of released offsets
// return ErrReclaimed. A victim's ledger entry is unpublished before the
// device frees it, so no lock-free reader starts a read of it after.
func (l *Log) Release(victims []storage.SegmentID) (freed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, seg := range victims {
		if seg == l.TailSegment() {
			return freed, fmt.Errorf("vlog: release of live tail segment %d", seg)
		}
		sp := l.space.Load(seg)
		if sp == nil {
			continue
		}
		l.space.Store(seg, nil)
		if err := l.dev.Free(seg); err != nil {
			l.space.Store(seg, sp)
			return freed, err
		}
		l.segs = slices.DeleteFunc(l.segs, func(s storage.SegmentID) bool { return s == seg })
		l.trimmed += sp.total
		freed++
	}
	return freed, nil
}
