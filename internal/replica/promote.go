package replica

import (
	"errors"
	"fmt"

	"tebis/internal/lsm"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// Promote converts this backup into a primary-capable engine after the
// old primary failed (§3.5):
//
//  1. Adopt the replicated RDMA log buffer as the value-log tail (the
//     unflushed suffix every replica already holds in memory).
//  2. Send-Index: wrap the rewritten levels and the replicated log in a
//     fresh engine; replay the log suffix past the last compaction
//     watermark to reconstruct L0.
//     Build-Index: keep the backup's own engine (it already has an L0)
//     and replay only the adopted tail.
//
// The caller must Detach this backup from the failed primary first. The
// returned engine serves reads and writes immediately; the new primary
// then replicates onward to the remaining backups (wired by the master).
func (b *Backup) Promote() (*lsm.DB, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.promoted {
		return nil, fmt.Errorf("replica: region %d at %s already promoted", b.cfg.RegionID, b.cfg.ServerName)
	}
	b.promoted = true

	// Discard a partially shipped compaction: its segments never became
	// a level.
	if err := b.discardShipLocked(); err != nil {
		return nil, err
	}

	// Adopt the replicated tail: the log buffer holds exactly the
	// records appended since the last flush, zero-padded.
	buf := make([]byte, b.logBuf.Size())
	if err := b.logBuf.ReadAt(0, buf); err != nil {
		return nil, err
	}
	used := vlog.ScanUsed(buf)

	// If a shipped index already references the primary's unflushed
	// tail, the log map holds a lazily allocated local segment for it;
	// the adopted tail must land exactly there so those rewritten
	// pointers stay valid. At most one mapped segment can be unflushed
	// (only the current tail is never flushed).
	tailSeg, ok, err := b.logMap.UnflushedLocal()
	if err != nil {
		return nil, err
	}
	if !ok {
		if tailSeg, err = b.cfg.Device.Alloc(); err != nil {
			return nil, err
		}
	}
	if err := b.log.AdoptTail(tailSeg, buf[:used]); err != nil {
		return nil, err
	}
	// Persist the adopted tail so level pointers into it resolve even
	// for reads that go to the device: the used bytes, zero-padded to a
	// full segment image.
	img := make([]byte, b.geo.SegmentSize())
	copy(img, buf[:used])
	if err := b.cfg.Device.WriteAt(b.geo.Pack(tailSeg, 0), img); err != nil {
		return nil, err
	}

	switch b.cfg.Mode {
	case BuildIndex:
		// The backup's engine already indexes everything flushed;
		// replay just the adopted tail.
		db := b.db.Load()
		if _, err := db.ReplayLog(b.geo.Pack(tailSeg, 0)); err != nil {
			return nil, err
		}
		return db, nil

	case SendIndex:
		opt := b.cfg.LSM
		opt.Device = b.cfg.Device
		opt.Cycles = b.cfg.Cycles
		opt.Cost = b.cfg.Cost
		states := b.levelStatesLocked(opt.MaxLevelsOrDefault())

		// Translate the primary-space watermark into local log space;
		// fall back to a full-log replay when the watermark's segment
		// was never flushed here (conservative but correct: replay
		// applies records in log order, so the newest version wins).
		watermark := storage.NilOffset
		if b.watermarkPrimary != storage.NilOffset {
			if local, ok := b.logMap.Lookup(b.geo.Segment(b.watermarkPrimary)); ok {
				watermark = b.geo.Rebase(b.watermarkPrimary, local)
			}
		}
		db, err := lsm.NewFromState(opt, b.log, states, watermark)
		if err != nil {
			return nil, err
		}
		if _, err := db.ReplayLog(watermark); err != nil {
			// The watermark's segment may have been trimmed from the
			// local log by a GC that ran after the last compaction
			// shipped here; fall back to a full replay (correct because
			// replay applies records in log order, newest version
			// last).
			if !errors.Is(err, vlog.ErrTrimmed) {
				return nil, err
			}
			if _, err := db.ReplayLog(storage.NilOffset); err != nil {
				return nil, err
			}
		}
		b.db.Store(db)
		return db, nil

	default:
		return nil, fmt.Errorf("replica: cannot promote mode %v", b.cfg.Mode)
	}
}

// levelStatesLocked is LevelStates with b.mu held.
func (b *Backup) levelStatesLocked(maxLevels int) []lsm.LevelState {
	out := make([]lsm.LevelState, maxLevels-1)
	for l, st := range b.levels {
		if l-1 >= 0 && l-1 < len(out) {
			out[l-1] = st
		}
	}
	return out
}
