package lsm

import (
	"fmt"
	"sort"

	"tebis/internal/memtable"
	"tebis/internal/metrics"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// GCPhase names one step of a cost-based GC pass, in execution order.
// Tests use the GCPolicy.Hook to crash or inject faults at each phase
// boundary; every phase is individually crash-safe (DESIGN.md "Value-log
// GC").
type GCPhase int

const (
	// GCPhasePlan reads the space ledger and picks victim segments.
	GCPhasePlan GCPhase = iota
	// GCPhaseRelocate re-appends each victim's live records at the tail
	// and updates the index in place (plain replicated appends).
	GCPhaseRelocate
	// GCPhaseSeal force-flushes the tail — the relocation commit point:
	// the CRC32C frame trailer makes the moved records durable, locally
	// and (via the flush-tail command) on every backup.
	GCPhaseSeal
	// GCPhaseCompact runs a full compaction cascade so no index entry —
	// current or shadowed — still points into a victim.
	GCPhaseCompact
	// GCPhaseRelease frees the victims locally and tells backups to free
	// their copies.
	GCPhaseRelease
)

func (p GCPhase) String() string {
	switch p {
	case GCPhasePlan:
		return "plan"
	case GCPhaseRelocate:
		return "relocate"
	case GCPhaseSeal:
		return "seal"
	case GCPhaseCompact:
		return "compact"
	case GCPhaseRelease:
		return "release"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// GCPacer gates GC progress on system load. The admission controller
// implements it: GC yields whenever the controller is tightening,
// delaying, or shedding foreground load (DESIGN.md "Data path") — reclaiming
// space must never contribute to a tail-latency incident.
type GCPacer interface {
	GCAllowed() bool
}

// GCPolicy parameterizes one cost-based GC pass. The zero value gets
// usable defaults.
type GCPolicy struct {
	// MinDeadRatio is the dead-byte fraction past which a sealed segment
	// becomes a victim candidate (default 0.5).
	MinDeadRatio float64
	// MaxSegments caps victims per pass so one pass bounds its own write
	// amplification (default 4).
	MaxSegments int
	// Pacer, when non-nil, is consulted before the pass and between
	// victims; a disallowed check pauses the pass cleanly.
	Pacer GCPacer
	// Stats receives pass accounting; may be nil.
	Stats *metrics.GCStats
	// Hook, when non-nil, runs at every phase boundary before the phase
	// executes. A non-nil return aborts the pass with that error — the
	// crash-injection seam for the fault suite.
	Hook func(GCPhase) error
}

func (p *GCPolicy) applyDefaults() {
	if p.MinDeadRatio <= 0 {
		p.MinDeadRatio = 0.5
	}
	if p.MaxSegments <= 0 {
		p.MaxSegments = 4
	}
}

func (p *GCPolicy) phase(ph GCPhase) error {
	if p.Hook == nil {
		return nil
	}
	return p.Hook(ph)
}

func (p *GCPolicy) allowed() bool {
	return p.Pacer == nil || p.Pacer.GCAllowed()
}

// GCResult reports one cost-based GC pass.
type GCResult struct {
	// Victims are the segments the pass selected and fully processed.
	Victims []storage.SegmentID
	// RecordsMoved counts live records relocated to the tail.
	RecordsMoved int
	// RecordsDropped counts dead records discarded.
	RecordsDropped int
	// TombstonesDragged counts dead tombstones re-appended to guard
	// older log data against resurrecting on a recovery replay.
	TombstonesDragged int
	// BytesMoved counts payload bytes re-appended.
	BytesMoved uint64
	// SegmentsFreed counts victims released on the device.
	SegmentsFreed int
	// BytesReclaimed counts the victims' payload bytes freed.
	BytesReclaimed uint64
	// Paused reports the pass yielded (fully or partially) to the pacer.
	Paused bool
}

// GCOnce runs one cost-based online GC pass over the value log
// (DESIGN.md "Value-log GC"). Victim segments — sealed segments whose
// recorded dead-byte ratio meets policy.MinDeadRatio — have their live
// records relocated to the log tail through the normal append path (so
// backups receive them via value-log replication), the tail is sealed as
// the relocation commit point, a full compaction cascade purges every stale
// index pointer into the victims, and the victims are then freed locally
// and on every backup.
//
// The pass is safe against a crash at any phase boundary: until Release,
// the victims still hold every acknowledged byte (relocation only adds
// copies, and replay order keeps the newest copy winning); after
// Release, the relocated copies are sealed under CRC32C frames and the
// index holds no pointer into the victims. Concurrent reads and writes
// proceed throughout — relocation re-checks index currency under the
// engine lock, so a racing overwrite always wins.
func (db *DB) GCOnce(policy GCPolicy) (GCResult, error) {
	policy.applyDefaults()
	db.gcMu.Lock()
	defer db.gcMu.Unlock()

	var res GCResult
	if !policy.allowed() {
		res.Paused = true
		policy.Stats.RecordPaused()
		return res, nil
	}
	if err := policy.phase(GCPhasePlan); err != nil {
		return res, err
	}
	victims := db.planVictims(policy)
	if len(victims) == 0 {
		policy.Stats.RecordPass()
		return res, nil
	}

	if err := policy.phase(GCPhaseRelocate); err != nil {
		return res, err
	}
	var processed []storage.SegmentID
	for _, seg := range victims {
		if len(processed) > 0 && !policy.allowed() {
			// Pause mid-pass: the victims already relocated continue
			// through seal/compact/release; the rest wait for the next
			// pass (their relocations so far are ordinary appends, so
			// abandoning them loses nothing).
			res.Paused = true
			policy.Stats.RecordPaused()
			break
		}
		if err := db.relocateVictim(seg, &res); err != nil {
			return res, err
		}
		processed = append(processed, seg)
	}
	res.Victims = processed
	policy.Stats.AddRelocation(res.RecordsMoved, res.RecordsDropped, res.TombstonesDragged, res.BytesMoved)
	if len(processed) == 0 {
		return res, nil
	}

	if err := policy.phase(GCPhaseSeal); err != nil {
		return res, err
	}
	if err := db.gcSealTail(); err != nil {
		return res, err
	}

	if err := policy.phase(GCPhaseCompact); err != nil {
		return res, err
	}
	if err := db.CompactAll(); err != nil {
		return res, err
	}

	if err := policy.phase(GCPhaseRelease); err != nil {
		return res, err
	}
	reclaimed := db.victimBytes(processed)
	freed, err := db.log.Release(processed)
	if err != nil {
		return res, err
	}
	res.SegmentsFreed = freed
	res.BytesReclaimed = reclaimed
	if l := db.getListener(); l != nil {
		l.OnRelease(processed)
	}
	policy.Stats.AddReclaim(freed, reclaimed)
	policy.Stats.RecordPass()
	return res, nil
}

// planVictims selects victim segments: sealed segments at or past the
// dead-ratio threshold, preferring the deadest, capped at MaxSegments,
// and returned in log order (oldest first) so the oldest-segment
// tombstone-drop rule applies to as many victims as possible.
func (db *DB) planVictims(policy GCPolicy) []storage.SegmentID {
	rep := db.log.SpaceReport()
	type cand struct {
		seg   storage.SegmentID
		ratio float64
		pos   int
	}
	var cands []cand
	for pos, s := range rep.Segments {
		if s.Total == 0 {
			continue
		}
		if r := s.DeadRatio(); r >= policy.MinDeadRatio {
			cands = append(cands, cand{seg: s.Seg, ratio: r, pos: pos})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ratio != cands[j].ratio {
			return cands[i].ratio > cands[j].ratio
		}
		return cands[i].pos < cands[j].pos
	})
	if len(cands) > policy.MaxSegments {
		cands = cands[:policy.MaxSegments]
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].pos < cands[j].pos })
	out := make([]storage.SegmentID, len(cands))
	for i, c := range cands {
		out[i] = c.seg
	}
	return out
}

// victimBytes sums the victims' recorded payload totals (for reclaim
// accounting, read before Release forgets them).
func (db *DB) victimBytes(victims []storage.SegmentID) uint64 {
	rep := db.log.SpaceReport()
	var n uint64
	for _, s := range rep.Segments {
		for _, v := range victims {
			if s.Seg == v {
				n += s.Total
			}
		}
	}
	return n
}

// relocateVictim scans one victim segment and relocates what must
// survive it: live records (the index still points at them) move to the
// tail with an in-place index update, and dead tombstones are dragged
// forward unless the victim is the oldest live segment — a tombstone
// record may only leave the log once no older record of its key can
// remain, or a crash-recovery replay would resurrect the key.
func (db *DB) relocateVictim(seg storage.SegmentID, res *GCResult) error {
	image := make([]byte, db.geo.SegmentSize())
	if err := db.log.ReadSegmentImage(seg, image); err != nil {
		return err
	}
	db.charge(metrics.CompOther, db.cost.ReadIO(len(image)))
	// Walk only the record region: a completely full segment's frame
	// trailer must not be misparsed as a record header.
	image = image[:storage.UsableCapacity(db.dev)]
	oldest := false
	if live := db.log.Segments(); len(live) > 0 && live[0] == seg {
		oldest = true
	}
	var werr error
	vlog.WalkImage(image, func(pos int64, key, value []byte, tomb bool, recLen int) bool {
		victimOff := db.geo.Pack(seg, pos)
		// Cheap read-locked pre-filter: most records in a victim are
		// dead, and a dead non-tombstone (or a dead tombstone in the
		// oldest segment) never needs the write lock.
		db.mu.RLock()
		e, found := db.entryAtLocked(key)
		db.mu.RUnlock()
		live := found && e.Off == victimOff
		if !live && !(tomb && !found && !oldest) {
			res.RecordsDropped++
			return true
		}
		moved, dragged, err := db.relocateRecord(key, value, tomb, victimOff, recLen, oldest)
		if err != nil {
			werr = err
			return false
		}
		switch {
		case moved:
			res.RecordsMoved++
			res.BytesMoved += uint64(recLen)
		case dragged:
			res.TombstonesDragged++
			res.BytesMoved += uint64(recLen)
		default:
			res.RecordsDropped++
		}
		return true
	})
	return werr
}

// entryAtLocked returns the index's current entry for key (a lookup
// that fails finds none). Caller holds db.mu (read or write).
func (db *DB) entryAtLocked(key []byte) (memtable.Entry, bool) {
	r := db.acquireReader()
	defer r.release()
	off, tomb, found, _, err := db.locateLocked(key, r.fullKey, nil)
	if err != nil || !found {
		return memtable.Entry{}, false
	}
	return memtable.Entry{Key: key, Off: off, Tombstone: tomb}, true
}

// relocateRecord re-checks one victim record's liveness under the
// engine lock and, if it must survive, re-appends it at the tail. The
// locked re-check closes the race with concurrent writers: an overwrite
// that lands between the pre-filter and here simply wins, and the
// record is dropped instead.
func (db *DB) relocateRecord(key, value []byte, tomb bool, victimOff storage.Offset, recLen int, oldestSeg bool) (moved, dragged bool, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return false, false, ErrClosed
	}
	if err := db.bgErr; err != nil {
		return false, false, err
	}

	e, found := db.entryAtLocked(key)
	live := found && e.Off == victimOff
	if !live {
		if !(tomb && !found && !oldestSeg) {
			return false, false, nil
		}
		// Dead tombstone, and older segments survive this pass: drag the
		// record to the tail without an index entry. Replay order stays
		// correct — the key has no live version now, so every surviving
		// record of it is older than the dragged copy.
		res, err := db.log.Append(key, nil, true)
		if err != nil {
			return false, false, err
		}
		db.charge(metrics.CompInsertL0, db.cost.L0Insert(recLen))
		if res.Sealed != nil {
			db.charge(metrics.CompInsertL0, db.cost.WriteIO(res.Sealed.Len))
		}
		if l := db.getListener(); l != nil {
			l.OnAppend(res, nil)
		}
		// No index entry points at the dragged copy; it is born dead.
		db.log.AddDead(res.Off, recLen)
		return false, true, nil
	}

	res, err := db.log.Append(key, value, tomb)
	if err != nil {
		return false, false, err
	}
	db.charge(metrics.CompInsertL0, db.cost.L0Insert(recLen))
	if res.Sealed != nil {
		db.charge(metrics.CompInsertL0, db.cost.WriteIO(res.Sealed.Len))
	}
	if l := db.getListener(); l != nil {
		l.OnAppend(res, nil)
	}
	db.l0.InsertPrev(key, res.Off, tomb)
	// The victim copy is superseded by the relocated one.
	db.log.AddDead(victimOff, recLen)
	if db.l0.Len() >= db.opt.L0MaxKeys {
		if err := db.freezeLocked(); err != nil {
			return true, false, err
		}
	}
	return true, false, nil
}

// gcSealTail force-flushes a partial tail under the engine lock — the
// relocation commit point — and hands the seal to the replication layer
// so backups persist their mirrored buffers too.
func (db *DB) gcSealTail() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	sealed, err := db.log.Seal()
	if err != nil || sealed == nil {
		return err
	}
	db.charge(metrics.CompInsertL0, db.cost.WriteIO(sealed.Len))
	if l := db.getListener(); l != nil {
		l.OnSeal(sealed)
	}
	return nil
}
