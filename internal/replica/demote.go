package replica

import (
	"fmt"

	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/shipcodec"
	"tebis/internal/storage"
	"tebis/internal/wire"
)

// SealTail flushes the primary's partial log tail and commands every
// backup to persist its mirrored buffer, leaving all replicas' log
// buffers empty and their log maps covering every sealed segment. A
// graceful primary switch runs this first so the hand-off needs no tail
// mirroring. The caller must have quiesced writes.
func (p *Primary) SealTail() error {
	sealed, err := p.DB().Log().Seal()
	if err != nil {
		return err
	}
	if sealed == nil {
		return nil // tail was empty
	}
	p.charge(metrics.CompInsertL0, p.cfg.Cost.WriteIO(sealed.Len))
	payload := wire.FlushTail{
		RegionID:   uint16(p.cfg.RegionID),
		PrimarySeg: uint32(sealed.Seg),
	}.Encode(nil)
	for _, h := range p.handles() {
		p.charge(metrics.CompLogReplication, p.cfg.Cost.RDMAWrite(wire.SentSize(len(payload))))
		if err := p.rpc(h, wire.OpFlushTail, payload); err != nil {
			return err
		}
	}
	return nil
}

// NewBackupFromPrimary converts a quiesced primary's state into a
// backup replica of a newly promoted primary — the second half of a
// graceful primary switch (load balancing, §3.1; the switch pattern is
// the one Acazoo uses to dodge compaction stalls, §6).
//
// oldToNew maps this (old primary's) local log segments to the new
// primary's local segments: it is the new primary's log-map snapshot
// taken before its promotion. The old primary's own segments stay in
// place; only the keying of its log map changes, exactly like the §3.2
// in-memory retarget.
//
// Preconditions (the master enforces them): writes quiesced, the log
// tail sealed via SealTail, compactions drained, and the Primary
// detached from its backups.
func NewBackupFromPrimary(p *Primary, cfg BackupConfig, oldToNew map[storage.SegmentID]storage.SegmentID) (*Backup, error) {
	db := p.DB()
	if db == nil {
		return nil, fmt.Errorf("replica: demote without engine")
	}
	if err := db.WaitIdle(); err != nil {
		return nil, err
	}
	geo := cfg.Device.Geometry()
	logBufSize, err := logBufferSize(cfg, geo)
	if err != nil {
		return nil, err
	}
	logBuf, err := cfg.Endpoint.Register(logBufSize)
	if err != nil {
		return nil, err
	}
	idxBuf, err := cfg.Endpoint.Register(int(geo.SegmentSize()) + shipcodec.MaxOverhead)
	if err != nil {
		return nil, err
	}
	b := &Backup{
		cfg:    cfg,
		geo:    geo,
		logBuf: logBuf,
		idxBuf: idxBuf,
		log:    db.Log(),
		logMap: NewSegMap(cfg.Device),
		levels: make(map[int]lsm.LevelState),
	}
	// Key the log map by the new primary's segment numbers: local
	// segment oldSeg now answers for the new primary's newSeg (the
	// data is already persisted here).
	for oldSeg, newSeg := range oldToNew {
		b.logMap.Put(newSeg, oldSeg, true)
	}
	b.watermarkPrimary = storage.NilOffset // unknown in new-primary space

	switch cfg.Mode {
	case SendIndex:
		for i, st := range db.Levels() {
			if st.NumKeys > 0 {
				b.levels[i+1] = st
			}
		}
	case BuildIndex:
		// The old engine (with its L0) becomes the backup's own engine;
		// it no longer replicates anywhere.
		db.SetListener(nil)
		b.db.Store(db)
	default:
		return nil, fmt.Errorf("replica: cannot demote to mode %v", cfg.Mode)
	}
	return b, nil
}
