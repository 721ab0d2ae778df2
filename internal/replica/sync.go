package replica

import (
	"fmt"
	"slices"

	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/storage"
	"tebis/internal/wire"
)

// Sync brings a freshly attached, empty backup up to date with this
// primary — the data transfer the master triggers when it replaces a
// failed backup with a new node (§3.5, "the master instructs the rest of
// the region servers in the group to transfer their region data to the
// new backup").
//
// Writes keep flowing: the backup receives every append from Attach on.
// With appends held off (lsm.AtAppendBoundary) Sync mirrors the
// unflushed tail into the backup's log buffer, so a flush of it is whole
// from then on. Then every sealed value-log segment ships as the image a
// FlushTail carries (populating the backup's log map, and, under
// Build-Index, its own LSM), and under Send-Index every level ships
// through the index path. A segment a live flush adopted before — from
// a buffer without the records appended before Attach, or ahead of the
// older segments shipped after it — is adopted again
// (vlog.Log.AdoptSegmentAs).
//
// Background compactions need no quiescing either: the transfer runs at
// a job boundary (lsm.AtJobBoundary), so a job in flight when the backup
// was attached finishes first — it ships only to the backups that saw
// its start — and the level snapshot shipped here already holds its
// result; jobs planned afterwards include the new backup from their
// start.
//
// Sync returns the number of payload bytes it shipped — log segments,
// tail, and built index segments.
func (p *Primary) Sync(b *Backup) (int64, error) {
	db := p.DB()
	if db == nil {
		return 0, fmt.Errorf("replica: Sync without engine")
	}
	var shipped int64
	err := db.AtJobBoundary(func() (err error) {
		shipped, err = p.transfer(b)
		return err
	})
	return shipped, err
}

// transfer is Sync's body, run with the compaction scheduler held.
func (p *Primary) transfer(b *Backup) (int64, error) {
	var shipped int64
	var h *backupHandle
	for _, cand := range p.handles() {
		if cand.backup == b {
			h = cand
			break
		}
	}
	if h == nil {
		return 0, fmt.Errorf("replica: Sync target not attached")
	}
	db := p.DB()
	p.cfg.Events.Record(obs.Event{
		Type: obs.EvSyncStarted, Node: p.cfg.ServerName,
		Msg: "full-state transfer to attached backup",
		Fields: map[string]string{
			"region": fmt.Sprint(p.cfg.RegionID),
			"backup": b.cfg.ServerName,
		},
	})
	log := db.Log()
	geo := log.Geometry()

	// 1. Mirror the unflushed tail into the backup's log buffer (no
	// flush: the backup holds it in memory exactly like live replicas)
	// and register the tail's primary segment in the backup's log map,
	// appends held off; take the sealed segments there. Without the
	// mapping a later Promote would adopt the tail into a fresh local
	// segment while indexes shipped in step 3 may reference the tail
	// through a different lazily allocated one — every pointer into the
	// unflushed tail would dangle.
	var sealed []storage.SegmentID
	err := db.AtAppendBoundary(func() error {
		sealed = log.Segments()
		tailSeg, tailData, tailLen := log.TailSnapshot()
		if tailLen == 0 {
			return nil
		}
		if err := p.writeLog(h, 0, tailData, nil); err != nil {
			return err
		}
		p.charge(metrics.CompLogReplication, p.cfg.Cost.RDMAWrite(len(tailData)))
		p.cfg.Failures.AddResyncBytes(len(tailData))
		shipped += int64(len(tailData))
		return p.rpc(h, wire.OpSyncTail, wire.FlushTail{
			RegionID:   uint16(p.cfg.RegionID),
			PrimarySeg: uint32(tailSeg),
		}.Encode(nil))
	})

	// 2. Ship every sealed log segment as the image of a FlushTail, read
	// in behind the fields it follows, in p.ship. Then ship again,
	// appends held off, each segment that sealed meanwhile: its live
	// flush was adopted ahead of older segments shipped after it, and a
	// backup's log order is its adoption order (replay, a Build-Index
	// backup's L0).
	fields := wire.FlushTail{}.Size()
	payload := p.ship.Reserve(fields + int(geo.SegmentSize()))[:fields+int(geo.SegmentSize())]
	flush := func(segs []storage.SegmentID) error {
		for _, seg := range segs {
			wire.FlushTail{RegionID: uint16(p.cfg.RegionID), PrimarySeg: uint32(seg)}.Encode(payload[:0])
			if err := log.ReadSegmentImage(seg, payload[fields:]); err != nil {
				return err
			}
			p.charge(metrics.CompLogReplication, p.cfg.Cost.RDMAWrite(wire.SentSize(len(payload))))
			p.cfg.Failures.AddResyncBytes(len(payload) - fields)
			shipped += int64(len(payload) - fields)
			if err := p.rpcIn(h, &p.ship, wire.OpFlushTail, payload); err != nil {
				return err
			}
		}
		return nil
	}
	if err == nil {
		err = flush(sealed)
	}
	if err == nil {
		err = db.AtAppendBoundary(func() error {
			return flush(slices.DeleteFunc(log.Segments(), func(seg storage.SegmentID) bool {
				return slices.Contains(sealed, seg)
			}))
		})
	}
	if err != nil {
		return shipped, err
	}

	// 3. Send-Index: ship every populated level through the index path.
	// Sync uses a reserved job-ID namespace (high bit set, keyed by
	// level) so its pseudo-jobs can never collide with the scheduler's
	// monotonically assigned compaction job IDs. A level segment ships as
	// its full image (the backup's rewrite stops at the first free node
	// slot, so full images of partially used segments are safe).
	if p.cfg.Mode == SendIndex {
		watermark := db.Watermark()
		image := make([]byte, geo.SegmentSize())
		for i, st := range db.Levels() {
			lvl := i + 1
			if st.NumKeys == 0 {
				continue
			}
			jobID := syncJobBase | uint64(lvl)
			start := wire.CompactionStart{
				RegionID: uint16(p.cfg.RegionID),
				JobID:    jobID,
				SrcLevel: 0,
				DstLevel: uint8(lvl),
				Filter:   st.Filter != nil,
			}.Encode(nil)
			if err := p.rpc(h, wire.OpCompactionStart, start); err != nil {
				return shipped, err
			}
			for _, seg := range st.Segments {
				if err := log.ReadSegmentImage(seg, image); err != nil {
					return shipped, err
				}
				payload, frame, err := p.indexSegment(jobID, lvl, seg, image)
				if err != nil {
					return shipped, err
				}
				p.charge(metrics.CompSendIndex, p.cfg.Cost.RDMAWrite(wire.SentSize(len(payload))))
				p.cfg.Failures.AddResyncBytes(frame)
				p.cfg.Ship.RecordShip(len(image), frame)
				shipped += int64(frame)
				if err := p.rpcIn(h, &p.ship, wire.OpIndexSegment, payload); err != nil {
					return shipped, err
				}
			}
			done := wire.CompactionDone{
				RegionID:  uint16(p.cfg.RegionID),
				JobID:     jobID,
				SrcLevel:  0,
				DstLevel:  uint8(lvl),
				Root:      uint64(st.Root),
				NumKeys:   uint32(st.NumKeys),
				Watermark: uint64(watermark),
			}.Encode(nil)
			if err := p.rpc(h, wire.OpCompactionDone, done); err != nil {
				return shipped, err
			}
		}
	}
	if err := b.Err(); err != nil {
		return shipped, err
	}
	// The replica slot is whole again: close the degraded window this
	// transfer repairs, if one was open.
	p.repaired()
	p.cfg.Events.Record(obs.Event{
		Type: obs.EvSyncDone, Node: p.cfg.ServerName,
		Msg: "full-state transfer complete",
		Fields: map[string]string{
			"region":  fmt.Sprint(p.cfg.RegionID),
			"backup":  b.cfg.ServerName,
			"shipped": fmt.Sprint(shipped),
		},
	})
	return shipped, nil
}

// syncJobBase marks the pseudo job IDs Sync ships whole levels under.
const syncJobBase = uint64(1) << 63
