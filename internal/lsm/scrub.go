package lsm

import (
	"errors"
	"fmt"

	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// ErrUnverifiedDevice reports that integrity operations were requested
// on a device without checksum frames (no storage.VerifyingDevice in
// the chain).
var ErrUnverifiedDevice = errors.New("lsm: device does not verify checksums")

// ScrubFinding is one segment that failed verification.
type ScrubFinding struct {
	// Seg is the corrupt device segment.
	Seg storage.SegmentID
	// Level locates the segment: 0 for the value log, >= 1 for the
	// owning LSM level's index.
	Level int
	// Err is the verification failure (wraps storage.ErrChecksum, or
	// integrity.ErrNoFrame for a segment that lost its frame).
	Err error
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	// Scanned counts segments verified.
	Scanned int
	// Findings lists the segments that failed, value log first.
	Findings []ScrubFinding
}

// Corrupt reports whether the scrub found anything.
func (r ScrubReport) Corrupt() bool { return len(r.Findings) > 0 }

// Scrub walks every sealed value-log segment and every level-index
// segment, re-verifying stored checksums against payloads (the fsck
// read pass; DESIGN.md "Storage integrity"). The in-memory tail is skipped
// — it has not been sealed, so there is nothing durable to verify. Scrub
// reads every payload byte; it is an offline operation (tebis-fsck), not
// a fast health check.
func (db *DB) Scrub() (ScrubReport, error) {
	ver := storage.AsVerifier(db.dev)
	if ver == nil {
		return ScrubReport{}, ErrUnverifiedDevice
	}
	var rep ScrubReport
	check := func(seg storage.SegmentID, level int) {
		rep.Scanned++
		if err := ver.VerifySegment(seg); err != nil {
			rep.Findings = append(rep.Findings, ScrubFinding{Seg: seg, Level: level, Err: err})
		}
	}
	for _, seg := range db.log.Segments() {
		check(seg, 0)
	}
	for li, st := range db.Levels() {
		for _, seg := range st.Segments {
			check(seg, li+1)
		}
	}
	return rep, nil
}

// RecoveryInfo describes what Open reconstructed.
type RecoveryInfo struct {
	// Log is the value-log recovery report (torn/orphan reclamation).
	Log vlog.RecoveryReport
	// RecordsReplayed counts log records re-inserted into L0.
	RecordsReplayed int
}

// Open rebuilds a DB from the segments already on opt.Device after a
// crash or restart. The value log is the source of truth: vlog.Open
// recovers and orders the sealed log segments (truncating a torn
// tail), prior index segments are reclaimed (there is no manifest; the
// levels are rebuilt by compaction), and every surviving record is
// replayed into L0.
//
// Mid-log corruption aborts with a located error: the node's data is
// lost, and its regions are recovered from their replicas by failing
// the node over (DESIGN.md "Storage integrity"). The device must verify
// checksums (storage.AsVerifying over a segment-listing device),
// otherwise ErrUnverifiedDevice.
func Open(opt Options) (*DB, *RecoveryInfo, error) {
	opt.applyDefaults()
	if opt.Device == nil {
		return nil, nil, fmt.Errorf("lsm: Options.Device is required")
	}
	log, logRep, err := vlog.Open(opt.Device)
	if errors.Is(err, vlog.ErrUnrecoverable) {
		return nil, nil, fmt.Errorf("%w: %v", ErrUnverifiedDevice, err)
	}
	if err != nil {
		return nil, nil, err
	}
	db, err := newWithLog(opt, log, nil)
	if err != nil {
		return nil, nil, err
	}
	n, err := db.ReplayLog(storage.NilOffset)
	if err != nil {
		db.Close()
		return nil, nil, fmt.Errorf("lsm: replay recovered log: %w", err)
	}
	return db, &RecoveryInfo{Log: *logRep, RecordsReplayed: n}, nil
}
