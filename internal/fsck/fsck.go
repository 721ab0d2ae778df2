// Package fsck implements the offline crash-consistency checker for
// file-backed Tebis devices (DESIGN.md "Storage integrity"), shared by
// cmd/tebis-fsck and the -fsck mode of cmd/tebis-server.
//
// The default pass is read-only: every framed segment on the image is
// re-verified against its stored CRC32C and failures are reported, but
// nothing is modified — a torn tail stays torn. With Recover set, the
// full crash-recovery path runs instead: the value log is rebuilt in
// frame-sequence order, torn tail segments and orphaned index segments
// are reclaimed, surviving records are replayed into L0, and a scrub
// pass re-verifies what remains. Recovery mutates the image; mid-log
// corruption (a bad checksum on a non-newest log segment) aborts it
// with a located error: the image has lost data, and the node's regions
// are recovered by failing it over to their replicas (DESIGN.md
// "Storage integrity").
package fsck

import (
	"fmt"
	"io"

	"tebis/internal/integrity"
	"tebis/internal/lsm"
	"tebis/internal/storage"
)

// Options configures a check.
type Options struct {
	// Path is the device image file.
	Path string
	// SegmentSize must match the size the image was written with.
	SegmentSize int64
	// Recover runs recovery (torn-tail truncation, orphan reclamation,
	// log replay) before scrubbing. This mutates the image.
	Recover bool
	// Log receives per-finding progress lines; nil discards them.
	Log io.Writer
}

// Finding is one corrupt segment.
type Finding struct {
	// Seg is the corrupt device segment.
	Seg storage.SegmentID
	// Kind is the frame kind the segment's trailer claims.
	Kind integrity.Kind
	// Err is the verification failure.
	Err error
}

// Result summarizes a check.
type Result struct {
	// Scanned counts segments verified.
	Scanned int
	// Findings lists the segments that failed verification.
	Findings []Finding
	// Recovery reports the recovery pass; nil in read-only mode.
	Recovery *lsm.RecoveryInfo
}

// Clean reports whether the image verified without findings.
func (r Result) Clean() bool { return len(r.Findings) == 0 }

// Run checks the image per opt. A non-nil error means the check itself
// could not run (unreadable image, unrecoverable log); corruption on a
// readable image is reported through Result.Findings instead.
func Run(opt Options) (Result, error) {
	logf := func(format string, args ...any) {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, format+"\n", args...)
		}
	}
	dev, err := storage.OpenFileDevice(opt.Path, opt.SegmentSize, 0)
	if err != nil {
		return Result{}, err
	}
	defer dev.Close()
	ver := storage.AsVerifying(dev)

	if !opt.Recover {
		var res Result
		for _, seg := range ver.Segments() {
			tr, err := ver.SegmentInfo(seg)
			if err != nil {
				// OpenFileDevice only allocates segments whose trailer
				// carried the frame magic, so this is a lost frame.
				res.Scanned++
				res.Findings = append(res.Findings, Finding{Seg: seg, Err: err})
				logf("segment %d: unreadable frame: %v", seg, err)
				continue
			}
			res.Scanned++
			if verr := ver.VerifySegment(seg); verr != nil {
				res.Findings = append(res.Findings, Finding{Seg: seg, Kind: tr.Kind, Err: verr})
				logf("segment %d (%v, %d B): %v", seg, tr.Kind, tr.PayloadLen, verr)
			}
		}
		logf("verified %d segments, %d corrupt", res.Scanned, len(res.Findings))
		return res, nil
	}

	db, info, err := lsm.Open(lsm.Options{Device: ver})
	if err != nil {
		return Result{}, fmt.Errorf("fsck: recovery: %w", err)
	}
	defer db.Close()
	logf("recovered %d log segments, truncated %d torn, reclaimed %d orphans, replayed %d records",
		info.Log.LogSegments, len(info.Log.TornSegments), len(info.Log.OrphanSegments),
		info.RecordsReplayed)
	rep, err := db.Scrub()
	if err != nil {
		return Result{Recovery: info}, err
	}
	res := Result{Scanned: rep.Scanned, Recovery: info}
	for _, f := range rep.Findings {
		kind := integrity.KindIndex
		if f.Level == 0 {
			kind = integrity.KindLog
		}
		res.Findings = append(res.Findings, Finding{Seg: f.Seg, Kind: kind, Err: f.Err})
		logf("segment %d (%v, level %d): %v", f.Seg, kind, f.Level, f.Err)
	}
	logf("scrubbed %d segments, %d corrupt", res.Scanned, len(res.Findings))
	return res, nil
}
