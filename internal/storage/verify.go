package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tebis/internal/integrity"
)

// ErrChecksum reports a segment whose stored CRC does not match its
// payload. The error is sticky: once a segment fails verification every
// read of it fails until the segment is rewritten or freed.
var ErrChecksum = errors.New("storage: segment checksum mismatch")

// FramedWriter is implemented by devices that stamp an integrity frame
// on each segment write. Writers that know what a segment holds (the
// value log, the index builder) declare the kind so recovery can
// classify segments; plain WriteAt through such a device frames the
// payload as integrity.KindOpaque.
//
// A full-size image's final integrity.TrailerSize bytes are the frame's
// to write: p is either a payload of at most the usable capacity, which
// WriteFramedAt only reads, or a whole segment image whose owner keeps
// nothing in those bytes and finds the trailer there afterwards (the
// image goes to the device in the one write, without a copy).
type FramedWriter interface {
	WriteFramedAt(off Offset, p []byte, kind integrity.Kind) error
}

// WriteFramed writes p at off, declaring the frame kind when dev
// supports framing and degrading to a plain WriteAt otherwise. All
// engine writers use this helper so the same code runs framed on a
// VerifyingDevice and unframed on a raw device.
func WriteFramed(dev Device, off Offset, p []byte, kind integrity.Kind) error {
	if fw, ok := dev.(FramedWriter); ok {
		return fw.WriteFramedAt(off, p, kind)
	}
	return dev.WriteAt(off, p)
}

// Verifier is implemented by devices that can check and describe the
// integrity frame of a segment; the scrubber and recovery depend on it.
type Verifier interface {
	// VerifySegment re-checks the stored CRC of seg against its
	// payload, bypassing any verified-read cache. It returns nil for a
	// valid frame, integrity.ErrNoFrame (wrapped) for an unframed
	// segment, and ErrChecksum (wrapped) for a corrupt one.
	VerifySegment(seg SegmentID) error
	// SegmentInfo returns the decoded frame trailer of seg.
	SegmentInfo(seg SegmentID) (integrity.Trailer, error)
}

// AsVerifier returns dev's Verifier capability, or nil if the device
// (chain) does not verify.
func AsVerifier(dev Device) Verifier {
	v, _ := dev.(Verifier)
	return v
}

// segState caches the verification status of one segment.
type segState struct {
	// pass is verified || unframed with no sticky error: reads go
	// straight to the device without taking mu.
	pass atomic.Bool

	mu       sync.Mutex
	verified bool  // payload CRC checked since the last write
	unframed bool  // trailer carried no magic at last check
	err      error // sticky checksum failure
}

// set records a verification outcome. Caller holds st.mu.
func (st *segState) set(verified, unframed bool, err error) {
	st.verified, st.unframed, st.err = verified, unframed, err
	st.pass.Store((verified || unframed) && err == nil)
}

// VerifyingDevice wraps a Device and enforces the integrity frame
// (DESIGN.md "Storage integrity"): every segment write gains a CRC-32C
// trailer in the final integrity.TrailerSize bytes, and the first read of a
// segment after a write (or after open) verifies the stored CRC before any
// bytes are served. Corruption surfaces as ErrChecksum instead of silent
// garbage.
//
// Writes must target the start of a segment (the engine's writers are
// whole-segment by construction); the usable payload shrinks to
// UsableCapacity = segment size − TrailerSize. A full-image write
// (len == segment size) is re-framed in a single underlying write so a
// torn write can never leave a stale-but-valid trailer over new bytes;
// a partial write lands payload first and trailer second, making the
// trailer the commit point.
//
// Reads of unframed segments pass through unverified: a fresh
// allocation has no frame yet, and after a crash recovery runs before
// the device serves reads, classifying unframed segments as torn.
type VerifyingDevice struct {
	inner Device
	geo   Geometry
	seq   atomic.Uint32
	nodes *NodeCache

	mu    sync.Mutex // serializes creating and dropping state entries
	state SegmentTable[segState]

	// corrupt counts the segments marked with a sticky ErrChecksum,
	// once per incarnation.
	corrupt atomic.Uint64
}

// AsVerifying wraps dev in a VerifyingDevice. A device that already
// verifies is returned unchanged. When dev can list its segments the
// frame sequence counter resumes after the largest stored seq, so
// segments written after a reopen sort after the survivors.
func AsVerifying(dev Device) *VerifyingDevice {
	if v, ok := dev.(*VerifyingDevice); ok {
		return v
	}
	d := &VerifyingDevice{
		inner: dev,
		geo:   dev.Geometry(),
		nodes: newNodeCache(dev.Geometry()),
	}
	if sl, ok := dev.(SegmentLister); ok {
		var maxSeq uint32
		for _, seg := range sl.Segments() {
			if t, err := d.SegmentInfo(seg); err == nil && t.Seq > maxSeq {
				maxSeq = t.Seq
			}
		}
		d.seq.Store(maxSeq)
	}
	return d
}

// Geometry implements Device.
func (d *VerifyingDevice) Geometry() Geometry { return d.geo }

// UsableCapacity implements CapacityDevice.
func (d *VerifyingDevice) UsableCapacity() int64 {
	return integrity.Capacity(d.geo.SegmentSize())
}

// NodeCache implements NodeCacher.
func (d *VerifyingDevice) NodeCache() *NodeCache { return d.nodes }

func (d *VerifyingDevice) segState(seg SegmentID) *segState {
	if st := d.state.Load(seg); st != nil {
		return st
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state.Load(seg)
	if st == nil {
		st = &segState{}
		d.state.Store(seg, st)
	}
	return st
}

// dropState forgets what is known about seg — its verification status
// and, by ending its incarnation, every node cached from it.
func (d *VerifyingDevice) dropState(seg SegmentID) {
	d.mu.Lock()
	d.state.Store(seg, nil)
	d.mu.Unlock()
	d.nodes.retire(seg)
}

// Alloc implements Device.
func (d *VerifyingDevice) Alloc() (SegmentID, error) {
	seg, err := d.inner.Alloc()
	if err == nil {
		d.dropState(seg)
	}
	return seg, err
}

// Free implements Device. The trailer region is zeroed before the
// segment is released so a reopen of a file-backed device does not
// resurrect the freed segment as allocated.
func (d *VerifyingDevice) Free(seg SegmentID) error {
	cap := d.UsableCapacity()
	if err := d.inner.WriteAt(d.geo.Pack(seg, cap), make([]byte, integrity.TrailerSize)); err != nil {
		// An unallocated target should report the allocator's typed
		// error (ErrBadSegment / ErrDoubleFree), which Free produces.
		if errors.Is(err, ErrBadSegment) || errors.Is(err, ErrClosed) {
			return d.inner.Free(seg)
		}
		return fmt.Errorf("storage: clear frame of freed segment %d: %w", seg, err)
	}
	if err := d.inner.Free(seg); err != nil {
		return err
	}
	d.dropState(seg)
	d.nodes.unlink(seg)
	return nil
}

// WriteAt implements Device; the payload is framed as KindOpaque. A
// Device only reads p, so a full-size image is framed in a copy.
func (d *VerifyingDevice) WriteAt(off Offset, p []byte) error {
	if int64(len(p)) == d.geo.SegmentSize() {
		p = append([]byte(nil), p...)
	}
	return d.WriteFramedAt(off, p, integrity.KindOpaque)
}

// WriteFramedAt implements FramedWriter.
func (d *VerifyingDevice) WriteFramedAt(off Offset, p []byte, kind integrity.Kind) error {
	if within := d.geo.Within(off); within != 0 {
		return fmt.Errorf("%w: framed write at in-segment offset %d", ErrSegmentOverflow, within)
	}
	seg := d.geo.Segment(off)
	segSize := d.geo.SegmentSize()
	cap := integrity.Capacity(segSize)

	payload := p
	full := int64(len(p)) == segSize
	if full {
		payload = p[:cap]
	} else if int64(len(p)) > cap {
		return fmt.Errorf("%w: %d-byte payload exceeds framed capacity %d", ErrSegmentOverflow, len(p), cap)
	}
	t := integrity.Trailer{
		Kind:       kind,
		PayloadLen: uint32(len(payload)),
		Seq:        d.seq.Add(1),
	}
	t.CRC = integrity.FrameChecksum(payload, t)
	var tr []byte
	if full {
		tr = p[cap:] // FramedWriter: the caller's image ends in room for it
	} else {
		tr = make([]byte, integrity.TrailerSize)
	}
	integrity.EncodeTrailer(tr, t)

	st := d.segState(seg)
	st.mu.Lock()
	defer st.mu.Unlock()
	// The incarnation ends after the bytes change and before the call
	// returns, on failure too: a torn write changed them as well.
	defer d.nodes.retire(seg)
	var err error
	if full {
		// One underlying write: a full image replaces the old trailer in
		// the same I/O, so a tear leaves either no magic or a CRC that
		// cannot cover the mixed bytes.
		err = d.inner.WriteAt(off, p)
	} else if err = d.inner.WriteAt(off, p); err == nil {
		// Payload first, trailer last: the trailer write is the commit
		// point, so a tear before it leaves the segment unframed (torn)
		// rather than framed-but-wrong.
		err = d.inner.WriteAt(d.geo.Pack(seg, cap), tr)
	}
	// A successful rewrite clears any sticky failure and marks the
	// fresh payload verified (we just computed its CRC).
	st.set(err == nil, false, nil)
	return err
}

// ReadAt implements Device. The first read of a segment verifies its
// payload CRC; later reads take no lock: one load of the segment's state
// and one of its pass bit. A segment the device does not hold gets no
// state, so a read through a mangled pointer costs the device's error,
// not a table grown to the pointer's ID.
func (d *VerifyingDevice) ReadAt(off Offset, p []byte) error {
	seg := d.geo.Segment(off)
	if st := d.state.Load(seg); st == nil || !st.pass.Load() {
		if st == nil && !mayHold(d.inner, seg) {
			return d.inner.ReadAt(off, p)
		}
		if err := d.verifyFirstRead(seg, d.segState(seg)); err != nil {
			return err
		}
	}
	return d.inner.ReadAt(off, p)
}

// ReadV implements VectorReader. The ranges on segments known to be
// good go to the wrapped device together; a range on any other takes
// ReadAt's path — its segment verified on first read, a sticky failure
// returned — at its place in the order, so the checks, the errors and
// the counters are those of one ReadAt per range.
func (d *VerifyingDevice) ReadV(offs []Offset, bufs [][]byte) (int, error) {
	done := 0 // ranges read
	for i, off := range offs {
		if st := d.state.Load(d.geo.Segment(off)); st != nil && st.pass.Load() {
			continue
		}
		if n, err := ReadV(d.inner, offs[done:i], bufs[done:i]); err != nil {
			return done + n, err
		}
		if err := d.ReadAt(off, bufs[i]); err != nil {
			return i, err
		}
		done = i + 1
	}
	n, err := ReadV(d.inner, offs[done:], bufs[done:])
	return done + n, err
}

// mayHold reports whether dev may hold seg: false only for a device of
// this package whose segment table has no entry for it.
func mayHold(dev Device, seg SegmentID) bool {
	h, ok := dev.(interface{ has(SegmentID) bool })
	return !ok || h.has(seg)
}

// verifyFirstRead is ReadAt's path for a segment not known to be good:
// it returns the sticky failure, or checks the frame. An unframed
// segment passes.
func (d *VerifyingDevice) verifyFirstRead(seg SegmentID, st *segState) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return st.err
	}
	if st.verified || st.unframed {
		return nil
	}
	if err := d.verifyLocked(seg, st); !errors.Is(err, integrity.ErrNoFrame) {
		return err
	}
	return nil
}

// verifyLocked re-reads seg's trailer and payload and records the
// outcome in st (whose mu is held): verified, unframed (returned as a
// wrapped integrity.ErrNoFrame), or a sticky ErrChecksum, which also
// ends the segment's incarnation so no node cached from it outlives the
// verdict. Device errors surface as-is and are not recorded.
func (d *VerifyingDevice) verifyLocked(seg SegmentID, st *segState) error {
	t, err := d.readTrailer(seg)
	switch {
	case errors.Is(err, integrity.ErrNoFrame):
		st.set(st.verified, true, st.err)
		return fmt.Errorf("segment %d: %w", seg, err)
	case err == nil:
		err = d.checkPayload(seg, t)
	case !isDeviceErr(err):
		err = fmt.Errorf("%w: segment %d: %v", ErrChecksum, seg, err)
	}
	if errors.Is(err, ErrChecksum) {
		if st.err == nil {
			d.corrupt.Add(1)
		}
		st.set(st.verified, st.unframed, err)
		d.nodes.retire(seg)
	} else if err == nil {
		st.set(true, st.unframed, nil)
	}
	return err
}

// isDeviceErr reports errors that belong to the allocator/device, not
// the frame: they must surface as-is and never become sticky checksum
// failures.
func isDeviceErr(err error) bool {
	return errors.Is(err, ErrBadSegment) || errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrSegmentOverflow) || errors.Is(err, ErrInjected)
}

func (d *VerifyingDevice) readTrailer(seg SegmentID) (integrity.Trailer, error) {
	segSize := d.geo.SegmentSize()
	tr := make([]byte, integrity.TrailerSize)
	if err := d.inner.ReadAt(d.geo.Pack(seg, integrity.Capacity(segSize)), tr); err != nil {
		return integrity.Trailer{}, err
	}
	return integrity.DecodeTrailer(tr, segSize)
}

func (d *VerifyingDevice) checkPayload(seg SegmentID, t integrity.Trailer) error {
	buf := make([]byte, t.PayloadLen)
	if err := d.inner.ReadAt(d.geo.Pack(seg, 0), buf); err != nil {
		return err
	}
	if got := integrity.FrameChecksum(buf, t); got != t.CRC {
		return fmt.Errorf("%w: segment %d: stored %08x computed %08x", ErrChecksum, seg, t.CRC, got)
	}
	return nil
}

// VerifySegment implements Verifier. Unlike ReadAt it does not treat
// an unframed segment as benign — the caller (scrub, recovery) decides
// what an unframed segment means in context — and it always re-reads
// the payload, bypassing the verified cache.
func (d *VerifyingDevice) VerifySegment(seg SegmentID) error {
	st := d.segState(seg)
	st.mu.Lock()
	defer st.mu.Unlock()
	return d.verifyLocked(seg, st)
}

// Corruptions reports how many segments this device has marked with a
// sticky ErrChecksum since it was opened, each incarnation once. It only
// grows: a node whose device found corruption has lost data it was
// trusted with and must be failed over (DESIGN.md "Storage integrity").
func (d *VerifyingDevice) Corruptions() uint64 { return d.corrupt.Load() }

// SegmentInfo implements Verifier.
func (d *VerifyingDevice) SegmentInfo(seg SegmentID) (integrity.Trailer, error) {
	return d.readTrailer(seg)
}

// Invalidate drops the cached verification state of seg, forcing the
// next read to re-check the stored CRC. Verification is cached per
// segment between writes, so corruption that lands on the medium after
// a segment was verified is only caught at the next cold read, a
// VerifySegment, or after Invalidate — fault-injection tests call it to model
// the cache eviction any real page cache eventually performs.
func (d *VerifyingDevice) Invalidate(seg SegmentID) { d.dropState(seg) }

// Segments implements SegmentLister when the wrapped device does.
func (d *VerifyingDevice) Segments() []SegmentID {
	if sl, ok := d.inner.(SegmentLister); ok {
		return sl.Segments()
	}
	return nil
}

// Stats implements Device.
func (d *VerifyingDevice) Stats() Stats { return d.inner.Stats() }

// ResetStats implements Device.
func (d *VerifyingDevice) ResetStats() { d.inner.ResetStats() }

// Close implements Device.
func (d *VerifyingDevice) Close() error { return d.inner.Close() }
