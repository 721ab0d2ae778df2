package replica

import (
	"fmt"

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
// It reuses the regular replication machinery: every sealed value-log
// segment is pushed through the log buffer + flush-tail path (which also
// populates the new backup's log map, and, under Build-Index, feeds its
// own LSM), the unflushed tail is mirrored into the log buffer, and
// under Send-Index every level is shipped through the index path.
//
// The caller must quiesce writes to the region for the duration of the
// transfer (the master performs transfers on regions whose primary just
// changed, before re-admitting client traffic). An incremental catch-up
// protocol is future work, as in the paper. Background compactions need
// no quiescing: the transfer runs at a job boundary (lsm.AtJobBoundary),
// so a job in flight when the backup was attached finishes first — it
// ships only to the backups that saw its start — and the level snapshot
// shipped here already holds its result; jobs planned afterwards
// include the new backup from their start.
//
// Sync returns the number of payload bytes it shipped — log segments,
// tail, and built index segments — which region migration reports
// through the tebis_region_ship_bytes_total family: the evidence the
// destination was seeded by shipping, not by re-compacting.
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
	geo := db.Log().Geometry()

	// 1. Replay every sealed log segment through the flush path.
	segImage := make([]byte, geo.SegmentSize())
	for _, seg := range log.Segments() {
		if err := log.ReadSegmentImage(seg, segImage); err != nil {
			return shipped, err
		}
		if err := p.writeWithRetry(h, b.LogBufferRKey(), 0, segImage, 0); err != nil {
			return shipped, err
		}
		p.charge(metrics.CompLogReplication, p.cfg.Cost.RDMAWrite(len(segImage)))
		p.cfg.Failures.AddResyncBytes(len(segImage))
		shipped += int64(len(segImage))
		payload := wire.FlushTail{
			RegionID:   uint16(p.cfg.RegionID),
			PrimarySeg: uint32(seg),
		}.Encode(nil)
		if err := p.rpc(h, wire.OpFlushTail, payload); err != nil {
			return shipped, err
		}
	}

	// 2. Mirror the unflushed tail into the backup's log buffer (no
	// flush: the backup holds it in memory exactly like live replicas)
	// and register the tail's primary segment in the backup's log map.
	// Without the mapping a later Promote would adopt the tail into a
	// fresh local segment while indexes shipped in step 3 may reference
	// the tail through a different lazily allocated one — every pointer
	// into the unflushed tail would dangle.
	tailSeg, tailData, tailLen := log.TailSnapshot()
	if tailLen > 0 {
		if err := p.writeWithRetry(h, b.LogBufferRKey(), 0, tailData, 0); err != nil {
			return shipped, err
		}
		p.charge(metrics.CompLogReplication, p.cfg.Cost.RDMAWrite(len(tailData)))
		p.cfg.Failures.AddResyncBytes(len(tailData))
		shipped += int64(len(tailData))
		payload := wire.FlushTail{
			RegionID:   uint16(p.cfg.RegionID),
			PrimarySeg: uint32(tailSeg),
		}.Encode(nil)
		if err := p.rpc(h, wire.OpSyncTail, payload); err != nil {
			return shipped, err
		}
	}

	// 3. Send-Index: ship every populated level through the index path.
	// Sync uses a reserved job-ID namespace (high bit set, keyed by
	// level) so its pseudo-jobs can never collide with the scheduler's
	// monotonically assigned compaction job IDs.
	if p.cfg.Mode == SendIndex {
		watermark := db.Watermark()
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
				n, err := p.shipSegmentImage(h, jobID, lvl, seg, geo)
				shipped += n
				if err != nil {
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

// shipSegmentImage sends one full level segment image through the
// Send-Index path (the backup's rewrite stops at the first free node
// slot, so full images of partially used segments are safe), framed by
// the ship codec like a compaction ship.
func (p *Primary) shipSegmentImage(h *backupHandle, jobID uint64, lvl int, seg storage.SegmentID, geo storage.Geometry) (int64, error) {
	image := make([]byte, geo.SegmentSize())
	if err := p.DB().Log().ReadSegmentImage(seg, image); err != nil {
		return 0, err
	}
	data, codec, err := p.encodeShip(image)
	if err != nil {
		return 0, err
	}
	if err := p.writeWithRetry(h, h.backup.IndexBufferRKey(), 0, data, 0); err != nil {
		return 0, err
	}
	p.charge(metrics.CompSendIndex, p.cfg.Cost.RDMAWrite(len(data)))
	p.cfg.Failures.AddResyncBytes(len(data))
	p.cfg.Ship.RecordShip(len(image), len(data))
	payload := wire.IndexSegment{
		RegionID:   uint16(p.cfg.RegionID),
		JobID:      jobID,
		DstLevel:   uint8(lvl),
		PrimarySeg: uint32(seg),
		DataLen:    uint32(len(data)),
		Codec:      codec,
	}.Encode(nil)
	return int64(len(data)), p.rpc(h, wire.OpIndexSegment, payload)
}
