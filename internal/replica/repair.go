package replica

// Scrub-and-repair plane (DESIGN.md "Storage integrity"). The primary
// orchestrates: it scrubs its own engine and heals corrupt segments from
// any backup's clean copy (OpFetchSegment), then commands each backup to
// scrub its replicated segments (OpScrub) and pushes clean images for
// whatever they report corrupt (OpRepairSegment).
//
// Everything on the wire travels in primary space — the segment
// numbering both sides share. A backup serving a fetch inverts the same
// offset rewrite it performed when the segment was shipped, so the
// primary receives byte-equivalent primary-space payloads; a backup
// applying a repair re-runs the forward rewrite, so the patched segment
// is byte-equivalent to what a fresh ship would have produced.

import (
	"fmt"
	"sort"

	"tebis/internal/btree"
	"tebis/internal/integrity"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/shipcodec"
	"tebis/internal/storage"
	"tebis/internal/wire"
)

// invertSegMap flips a <primary, local> snapshot into <local, primary>.
func invertSegMap(m map[storage.SegmentID]storage.SegmentID) map[storage.SegmentID]storage.SegmentID {
	out := make(map[storage.SegmentID]storage.SegmentID, len(m))
	for primary, local := range m {
		out[local] = primary
	}
	return out
}

// strictMapper adapts a plain map to a btree.SegmentMapper that fails on
// unknown segments instead of allocating (repair must never invent
// mappings the ship path did not create).
func strictMapper(m map[storage.SegmentID]storage.SegmentID) btree.SegmentMapper {
	return func(seg storage.SegmentID) (storage.SegmentID, error) {
		local, ok := m[seg]
		if !ok {
			return storage.NilSegment, fmt.Errorf("replica: no mapping for segment %d", seg)
		}
		return local, nil
	}
}

// readVerifiedPayload reads the used (framed) payload bytes of one local
// segment, re-verifying its stored CRC first: a copy that becomes a fetch
// reply or a repair image must be provably clean.
func readVerifiedPayload(dev storage.Device, seg storage.SegmentID) ([]byte, error) {
	ver := storage.AsVerifier(dev)
	if ver == nil {
		return nil, lsm.ErrUnverifiedDevice
	}
	if err := ver.VerifySegment(seg); err != nil {
		return nil, err
	}
	t, err := ver.SegmentInfo(seg)
	if err != nil {
		return nil, err
	}
	data := make([]byte, t.PayloadLen)
	if err := dev.ReadAt(dev.Geometry().Pack(seg, 0), data); err != nil {
		return nil, err
	}
	return data, nil
}

// toPrimarySpace undoes, in place, the ship-time localization of one
// stored index segment of the given level: every child pointer and
// value offset goes back through the inverted maps, yielding the exact
// payload the primary originally shipped. Caller holds b.mu.
func (b *Backup) toPrimarySpace(level int, data []byte) error {
	_, err := btree.RewriteSegment(data, b.cfg.LSM.NodeSize, b.geo,
		strictMapper(invertSegMap(b.levelMaps[level])),
		strictMapper(invertSegMap(b.logMap.Snapshot())))
	return err
}

// handleScrub checksum-verifies every replicated segment this backup
// holds — the flushed value-log segments and each installed level's
// index segments — and reports failures in primary space.
func (b *Backup) handleScrub(h wire.Header, _ wire.ScrubReq) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ver := storage.AsVerifier(b.cfg.Device)
	if ver == nil {
		return ackError(h, wire.OpScrubReply, lsm.ErrUnverifiedDevice), nil
	}
	var reply wire.ScrubReply
	invLog := invertSegMap(b.logMap.Snapshot())
	for _, local := range b.log.Segments() {
		primary, ok := invLog[local]
		if !ok {
			continue // not replicated (a promoted backup's own appends)
		}
		reply.Scanned++
		if err := ver.VerifySegment(local); err != nil {
			reply.Corrupt = append(reply.Corrupt, wire.SegRef{
				Kind: uint8(integrity.KindLog), PrimarySeg: uint32(primary),
			})
		}
	}
	var lvls []int
	for lvl := range b.levels {
		lvls = append(lvls, lvl)
	}
	sort.Ints(lvls)
	for _, lvl := range lvls {
		invIdx := invertSegMap(b.levelMaps[lvl])
		for _, local := range b.levels[lvl].Segments {
			reply.Scanned++
			if err := ver.VerifySegment(local); err != nil {
				primary, ok := invIdx[local]
				if !ok {
					continue // unnamed in primary space; unrepairable here
				}
				reply.Corrupt = append(reply.Corrupt, wire.SegRef{
					Kind: uint8(integrity.KindIndex), Level: uint8(lvl),
					PrimarySeg: uint32(primary),
				})
			}
		}
	}
	return ackWithPayload(h, wire.OpScrubReply, reply.Encode(nil)), nil
}

// handleFetchSegment serves a clean, primary-space copy of one
// replicated segment, or Found=false when this backup cannot help (no
// mapping, its own copy corrupt, the rewrite fails). A miss is a normal
// outcome — the primary just asks the next backup — so it never errors
// the control loop.
func (b *Backup) handleFetchSegment(h wire.Header, req wire.FetchSegment) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	miss := ackWithPayload(h, wire.OpFetchSegmentReply, wire.FetchSegmentReply{}.Encode(nil))
	var (
		local storage.SegmentID
		ok    bool
	)
	switch integrity.Kind(req.Ref.Kind) {
	case integrity.KindLog:
		local, ok = b.logMap.Lookup(storage.SegmentID(req.Ref.PrimarySeg))
	case integrity.KindIndex:
		local, ok = b.levelMaps[int(req.Ref.Level)][storage.SegmentID(req.Ref.PrimarySeg)]
	}
	if !ok {
		return miss, nil
	}
	// Serve only a provably clean copy: re-verify the stored CRC now.
	data, err := readVerifiedPayload(b.cfg.Device, local)
	if err != nil {
		return miss, nil
	}
	b.charge(metrics.CompOther, b.cfg.Cost.ReadIO(len(data)))
	if integrity.Kind(req.Ref.Kind) == integrity.KindIndex {
		if err := b.toPrimarySpace(int(req.Ref.Level), data); err != nil {
			return miss, nil
		}
	}
	reply := wire.FetchSegmentReply{Found: true, Data: data}
	if req.Codec != 0 {
		// The codec is the outermost wire layer: compress AFTER the
		// rewrite inversion, so the requester's decode yields the
		// primary-space payload directly.
		frame, err := shipcodec.EncodePages(shipcodec.Codec(req.Codec), data, b.cfg.LSM.NodeSize)
		if err != nil {
			return miss, nil
		}
		reply.Data = frame
		reply.Codec = req.Codec
	}
	return ackWithPayload(h, wire.OpFetchSegmentReply, reply.Encode(nil)), nil
}

// handleRepairSegment patches one corrupt local segment from the clean
// primary-space image the primary staged in the index buffer. The CRC in
// the request covers the staged bytes, so a damaged transfer is rejected
// before anything touches the device. Failures answer with a FlagError
// ack: the primary records the segment unrepairable, the loop lives on.
func (b *Backup) handleRepairSegment(h wire.Header, req wire.RepairSegment) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fail := func(err error) ([]byte, error) {
		return ackError(h, wire.OpRepairSegmentAck, err), nil
	}
	if int64(req.DataLen) > b.geo.SegmentSize()+int64(shipcodec.MaxOverhead) {
		return fail(fmt.Errorf("replica: repair image of %d bytes", req.DataLen))
	}
	data := make([]byte, req.DataLen)
	if err := b.idxBuf.ReadAt(0, data); err != nil {
		return fail(err)
	}
	if got := integrity.Checksum(data); got != req.CRC {
		return fail(fmt.Errorf("replica: repair image checksum %08x, want %08x", got, req.CRC))
	}
	if req.Codec != 0 {
		// Invert the codec first (the transfer CRC above covered the
		// framed bytes), then the forward rewrite below re-localizes
		// the decoded primary-space image — the inverse of the fetch
		// path's rewrite-then-compress order.
		raw, err := shipcodec.Decode(data, nil, 0)
		if err != nil {
			return fail(err)
		}
		data = raw
	}
	switch integrity.Kind(req.Ref.Kind) {
	case integrity.KindLog:
		local, ok := b.logMap.Lookup(storage.SegmentID(req.Ref.PrimarySeg))
		if !ok {
			return fail(fmt.Errorf("replica: repair for unknown log segment %d", req.Ref.PrimarySeg))
		}
		if err := storage.WriteFramed(b.cfg.Device, b.geo.Pack(local, 0), data, integrity.KindLog); err != nil {
			return fail(err)
		}
	case integrity.KindIndex:
		lvlMap := b.levelMaps[int(req.Ref.Level)]
		local, ok := lvlMap[storage.SegmentID(req.Ref.PrimarySeg)]
		if !ok {
			return fail(fmt.Errorf("replica: repair for unknown index segment %d at level %d",
				req.Ref.PrimarySeg, req.Ref.Level))
		}
		// Re-localize exactly as the original ship did: child pointers
		// through the retained level map, value offsets through the log
		// map. The result is byte-identical to the pre-corruption
		// segment because both rewrites used the same mappings.
		if _, err := btree.RewriteSegment(data, b.cfg.LSM.NodeSize, b.geo,
			strictMapper(lvlMap), b.logMap.Resolve); err != nil {
			return fail(err)
		}
		if err := storage.WriteFramed(b.cfg.Device, b.geo.Pack(local, 0), data, integrity.KindIndex); err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("replica: repair for unknown segment kind %d", req.Ref.Kind))
	}
	b.charge(metrics.CompOther, b.cfg.Cost.WriteIO(len(data)))
	return ackMessage(h, wire.OpRepairSegmentAck), nil
}

// RepairReport summarizes one ScrubAndRepair pass over the replica
// group.
type RepairReport struct {
	// LocalScanned counts segments the primary verified in its own
	// engine; LocalFindings lists those that failed.
	LocalScanned  int
	LocalFindings []lsm.ScrubFinding
	// LocalRepaired counts primary segments restored from a backup.
	LocalRepaired int
	// BackupScanned and BackupFindings aggregate the backups' scrub
	// replies; BackupRepaired counts segments patched by push repair.
	BackupScanned  int
	BackupFindings int
	BackupRepaired int
	// Unrepairable counts corrupt segments (either side) no clean copy
	// could restore.
	Unrepairable int
}

// Clean reports whether the pass found nothing wrong anywhere.
func (r RepairReport) Clean() bool {
	return len(r.LocalFindings) == 0 && r.BackupFindings == 0
}

// ScrubAndRepair runs one full integrity pass over the replica group:
// scrub the primary's own engine and heal its corrupt segments from
// backup copies, then scrub every backup and push clean images for
// their corrupt segments. stats may be nil.
func (p *Primary) ScrubAndRepair(stats *metrics.ScrubStats) (RepairReport, error) {
	var out RepairReport
	if p.db == nil {
		return out, fmt.Errorf("replica: primary has no engine bound")
	}
	rep, err := p.db.Scrub(stats)
	if err != nil {
		return out, err
	}
	out.LocalScanned = rep.Scanned
	out.LocalFindings = rep.Findings
	for _, f := range rep.Findings {
		kind := integrity.KindIndex
		if f.Level == 0 {
			kind = integrity.KindLog
		}
		ref := wire.SegRef{Kind: uint8(kind), Level: uint8(f.Level), PrimarySeg: uint32(f.Seg)}
		if p.repairLocal(ref) {
			out.LocalRepaired++
			stats.RecordRepair()
		} else {
			out.Unrepairable++
			stats.RecordUnrepairable()
		}
	}
	for _, h := range p.handles() {
		reply, err := p.scrubBackup(h)
		if err != nil {
			p.evict(h, err)
			continue
		}
		out.BackupScanned += int(reply.Scanned)
		out.BackupFindings += len(reply.Corrupt)
		stats.AddScanned(int(reply.Scanned))
		for _, ref := range reply.Corrupt {
			stats.RecordCorruption()
			if p.repairBackup(h, ref) {
				out.BackupRepaired++
				stats.RecordRepair()
			} else {
				out.Unrepairable++
				stats.RecordUnrepairable()
			}
		}
	}
	return out, nil
}

// scrubBackup commands one backup to verify its replicated segments.
func (p *Primary) scrubBackup(h *backupHandle) (wire.ScrubReply, error) {
	payload := wire.ScrubReq{RegionID: uint16(p.cfg.RegionID)}.Encode(nil)
	h.mu.Lock()
	re, err := p.rpcReplyLocked(h, wire.OpScrub, payload, p.segmentRecvSize())
	h.mu.Unlock()
	if err != nil {
		return wire.ScrubReply{}, err
	}
	return wire.DecodeScrubReply(re)
}

// segmentRecvSize bounds reply messages that may carry a full segment
// payload (fetch replies; scrub replies are far smaller but share it).
// A codec frame can exceed the raw image by its header, so the bound
// includes that overhead.
func (p *Primary) segmentRecvSize() int {
	segSize := int(p.db.Device().Geometry().SegmentSize())
	return wire.MessageSize(segSize + shipcodec.MaxOverhead + 64)
}

// repairLocal restores one corrupt primary segment from the first
// backup holding a clean copy, rewriting it in place and re-verifying
// the stored CRC before declaring success.
func (p *Primary) repairLocal(ref wire.SegRef) bool {
	dev := p.db.Device()
	ver := storage.AsVerifier(dev)
	seg := storage.SegmentID(ref.PrimarySeg)
	for _, h := range p.handles() {
		data, ok := p.fetchFrom(h, ref)
		if !ok {
			continue
		}
		if err := storage.WriteFramed(dev, dev.Geometry().Pack(seg, 0), data, integrity.Kind(ref.Kind)); err != nil {
			continue
		}
		if ver != nil {
			if err := ver.VerifySegment(seg); err != nil {
				continue
			}
		}
		return true
	}
	return false
}

// fetchFrom pulls a primary-space copy of one segment from a backup.
// The request advertises the primary's ship codec; a codec-aware backup
// answers with a compressed frame the primary inverts here, after the
// backup already inverted the offset rewrite (DESIGN.md "Replication" — the
// codec is the outermost layer on the wire).
func (p *Primary) fetchFrom(h *backupHandle, ref wire.SegRef) ([]byte, bool) {
	payload := wire.FetchSegment{
		RegionID: uint16(p.cfg.RegionID),
		Ref:      ref,
		Codec:    uint8(p.cfg.ShipCodec),
	}.Encode(nil)
	h.mu.Lock()
	re, err := p.rpcReplyLocked(h, wire.OpFetchSegment, payload, p.segmentRecvSize())
	h.mu.Unlock()
	if err != nil {
		return nil, false
	}
	reply, err := wire.DecodeFetchSegmentReply(re)
	if err != nil || !reply.Found {
		return nil, false
	}
	p.charge(metrics.CompOther, p.cfg.Cost.RDMAWrite(len(reply.Data)))
	if reply.Codec != 0 {
		raw, err := shipcodec.Decode(reply.Data, nil, 0)
		if err != nil {
			return nil, false
		}
		return raw, true
	}
	return reply.Data, true
}

// repairBackup pushes the primary's clean copy of one segment to a
// backup that reported it corrupt: stage the primary-space payload in
// the backup's index buffer (one-sided write, like a ship), then a
// repair command carrying the length and a CRC over the staged bytes.
// The handle lock is held across both so a concurrent compaction ship
// cannot interleave on the staging buffer.
func (p *Primary) repairBackup(h *backupHandle, ref wire.SegRef) bool {
	// The primary's own copy must be clean to be a repair source (a
	// corrupt one was already healed — or not — in the local pass).
	data, err := readVerifiedPayload(p.db.Device(), storage.SegmentID(ref.PrimarySeg))
	if err != nil {
		return false
	}
	// Compress the repair image like a regular ship; the transfer CRC
	// covers the staged (framed) bytes, so the backup checks the wire
	// transfer before inverting the codec (and only then rewrites).
	data, codec, err := p.encodeShip(data)
	if err != nil {
		return false
	}
	req := wire.RepairSegment{
		RegionID: uint16(p.cfg.RegionID),
		Ref:      ref,
		DataLen:  uint32(len(data)),
		CRC:      integrity.Checksum(data),
		Codec:    codec,
	}
	const wrRepair = 3
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := p.writeWithRetry(h, h.backup.IndexBufferRKey(), 0, data, wrRepair); err != nil {
		return false
	}
	p.charge(metrics.CompOther, p.cfg.Cost.RDMAWrite(len(data)))
	_, err = p.rpcReplyLocked(h, wire.OpRepairSegment, req.Encode(nil), ackRecvSize)
	return err == nil
}
