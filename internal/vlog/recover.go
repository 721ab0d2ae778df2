package vlog

import (
	"errors"
	"fmt"
	"sort"

	"tebis/internal/integrity"
	"tebis/internal/storage"
)

// ErrUnrecoverable reports that a device cannot be crash-recovered
// because it lacks the verification capabilities Open depends on.
var ErrUnrecoverable = errors.New("vlog: device does not support verified recovery")

// recoverableDevice is what Open needs from the device: enumerate
// segments, decode their frame trailers, and verify their checksums.
// storage.VerifyingDevice over a SegmentLister provides all three.
type recoverableDevice interface {
	storage.Device
	storage.SegmentLister
	storage.Verifier
}

// RecoveryReport describes what Open found on the device.
type RecoveryReport struct {
	// LogSegments is the number of sealed value-log segments recovered,
	// in frame-sequence order.
	LogSegments int
	// TornSegments are segments reclaimed because their frame never
	// committed: unframed payloads (a seal torn before its trailer) and
	// a checksum-invalid newest log segment (a seal torn inside its
	// trailer). Their writes were never acknowledged.
	TornSegments []storage.SegmentID
	// OrphanSegments are framed non-log segments reclaimed because
	// nothing references them after a restart — index segments are
	// rebuilt from the log (there is no manifest).
	OrphanSegments []storage.SegmentID
}

// Open rebuilds a value log from the segments already on dev after a
// crash or restart (DESIGN.md "Storage integrity"). Sealed log segments are
// identified by their frame kind and ordered by frame sequence number; each
// is checksum-verified before it is trusted.
//
// A torn tail truncates: unframed segments, and a bad checksum on the
// newest log segment (a seal that tore inside its own trailer), are
// reclaimed — those seals never completed, so no acknowledged write is
// lost. A bad checksum on any older log segment is mid-log corruption:
// Open fails with a located error naming the segment. The node's data is
// lost; its regions are recovered by failing it over to their replicas.
//
// All other segments — index frames and opaque frames — are reclaimed,
// since the log is the only recovery source of truth; the LSM rebuilds
// its levels by replay.
func Open(dev storage.Device) (*Log, *RecoveryReport, error) {
	rdev, ok := dev.(recoverableDevice)
	if !ok {
		return nil, nil, ErrUnrecoverable
	}

	type logSeg struct {
		id  storage.SegmentID
		seq uint32
	}
	var (
		rep     RecoveryReport
		logSegs []logSeg
	)
	for _, seg := range rdev.Segments() {
		t, err := rdev.SegmentInfo(seg)
		switch {
		case errors.Is(err, integrity.ErrNoFrame):
			rep.TornSegments = append(rep.TornSegments, seg)
			continue
		case err != nil:
			return nil, nil, fmt.Errorf("vlog: recover segment %d: %w", seg, err)
		}
		if t.Kind == integrity.KindLog {
			if t.Seq == 0 {
				// Frame sequence numbers start at 1, so a stored zero
				// means the seal tore inside the trailer's seq field
				// before the counter bytes landed. The write never
				// returned; reclaim it like any other torn seal.
				rep.TornSegments = append(rep.TornSegments, seg)
				continue
			}
			logSegs = append(logSegs, logSeg{id: seg, seq: t.Seq})
		} else {
			rep.OrphanSegments = append(rep.OrphanSegments, seg)
		}
	}
	sort.Slice(logSegs, func(i, j int) bool { return logSegs[i].seq < logSegs[j].seq })

	// Verify oldest-first so mid-log corruption is located before the
	// newest segment's torn-seal special case can absorb it.
	for i, ls := range logSegs {
		err := rdev.VerifySegment(ls.id)
		if err == nil {
			continue
		}
		if !errors.Is(err, storage.ErrChecksum) {
			return nil, nil, fmt.Errorf("vlog: recover segment %d: %w", ls.id, err)
		}
		if i == len(logSegs)-1 {
			// Newest log segment: the seal tore inside its trailer. The
			// write never returned, so truncating loses nothing
			// acknowledged.
			rep.TornSegments = append(rep.TornSegments, ls.id)
			logSegs = logSegs[:i]
			break
		}
		return nil, nil, fmt.Errorf("vlog: mid-log corruption in segment %d (seq %d of %d log segments): %w",
			ls.id, ls.seq, len(logSegs), err)
	}

	for _, seg := range rep.TornSegments {
		if err := dev.Free(seg); err != nil {
			return nil, nil, fmt.Errorf("vlog: reclaim torn segment %d: %w", seg, err)
		}
	}
	for _, seg := range rep.OrphanSegments {
		if err := dev.Free(seg); err != nil {
			return nil, nil, fmt.Errorf("vlog: reclaim orphan segment %d: %w", seg, err)
		}
	}

	l := &Log{
		dev: dev,
		geo: dev.Geometry(),
		cap: storage.UsableCapacity(dev),
	}
	buf := make([]byte, l.geo.SegmentSize())
	for _, ls := range logSegs {
		l.segs = append(l.segs, ls.id)
		// Rebuild the space ledger's totals: scan the recovered segment
		// for its used payload length. Dead counts restart at zero and
		// are re-learned by the engine's recovery replay (every in-log
		// overwrite chain is rediscovered when the index is rebuilt).
		if err := dev.ReadAt(l.geo.Pack(ls.id, 0), buf); err != nil {
			return nil, nil, fmt.Errorf("vlog: recover segment %d: %w", ls.id, err)
		}
		l.space.Store(ls.id, &segSpace{total: uint64(ScanUsed(buf[:l.cap]))})
	}
	rep.LogSegments = len(l.segs)
	if err := l.rollTail(); err != nil {
		return nil, nil, err
	}
	return l, &rep, nil
}
