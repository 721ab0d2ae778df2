package storage

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"tebis/internal/integrity"
)

// FileDevice is a file-backed segment device used by the standalone
// binaries. The file grows as segments are allocated; the segment
// allocator and the traffic counters behave exactly like MemDevice.
type FileDevice struct {
	geo  Geometry
	maxN int

	mu     sync.Mutex // serializes Alloc, Free and Close
	f      *os.File
	alloc  SegmentTable[struct{}]
	free   []SegmentID
	next   SegmentID
	closed atomic.Bool

	ctr counters
}

// NewFileDevice opens (creating if necessary) a file-backed device at
// path. maxSegments bounds capacity; 0 means unbounded.
func NewFileDevice(path string, segmentSize int64, maxSegments int) (*FileDevice, error) {
	geo, err := NewGeometry(segmentSize)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open device file: %w", err)
	}
	return &FileDevice{
		geo:  geo,
		maxN: maxSegments,
		f:    f,
		next: 1,
	}, nil
}

// OpenFileDevice reopens an existing device file without truncating it,
// rebuilding the allocator from the frame trailers on disk: a segment
// whose trailer carries the frame magic is allocated, anything else
// (fresh, freed, or torn before its trailer committed) goes back to the
// free list. This is the crash-recovery entry point; pair it with
// AsVerifying so reads are checksum-verified.
func OpenFileDevice(path string, segmentSize int64, maxSegments int) (*FileDevice, error) {
	geo, err := NewGeometry(segmentSize)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open device file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat device file: %w", err)
	}
	d := &FileDevice{
		geo:  geo,
		maxN: maxSegments,
		f:    f,
		next: 1,
	}
	nSegs := st.Size() / segmentSize
	tr := make([]byte, integrity.TrailerSize)
	for id := SegmentID(1); int64(id) < nSegs; id++ {
		pos := int64(id+1)*segmentSize - integrity.TrailerSize
		if _, err := f.ReadAt(tr, pos); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: scan segment %d trailer: %w", id, err)
		}
		// The bound check is the verifier's job; here any magic counts
		// as "was sealed".
		if _, err := integrity.DecodeTrailer(tr, 0); err == nil {
			d.alloc.Store(id, allocated)
		} else {
			d.free = append(d.free, id)
		}
	}
	if nSegs > 1 {
		d.next = SegmentID(nSegs)
	}
	return d, nil
}

// Geometry implements Device.
func (d *FileDevice) Geometry() Geometry { return d.geo }

// Alloc implements Device.
func (d *FileDevice) Alloc() (SegmentID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return NilSegment, ErrClosed
	}
	var id SegmentID
	if n := len(d.free); n > 0 {
		id = d.free[n-1]
		d.free = d.free[:n-1]
		// Zero the recycled segment so readers of fresh segments never
		// see stale bytes (MemDevice allocates zeroed; match it).
		if _, err := d.f.WriteAt(make([]byte, d.geo.segSize), int64(id)*d.geo.segSize); err != nil {
			return NilSegment, fmt.Errorf("storage: zero recycled segment: %w", err)
		}
	} else {
		if d.maxN > 0 && int(d.next) > d.maxN {
			return NilSegment, ErrOutOfSpace
		}
		id = d.next
		d.next++
		if err := d.f.Truncate(int64(id+1) * d.geo.segSize); err != nil {
			return NilSegment, fmt.Errorf("storage: grow device file: %w", err)
		}
	}
	d.alloc.Store(id, allocated)
	return id, nil
}

// Free implements Device.
func (d *FileDevice) Free(id SegmentID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	if !d.has(id) {
		if id != NilSegment && id < d.next {
			return fmt.Errorf("%w: %w: %d", ErrBadSegment, ErrDoubleFree, id)
		}
		return fmt.Errorf("%w: %d", ErrBadSegment, id)
	}
	d.alloc.Store(id, nil)
	d.free = append(d.free, id)
	return nil
}

// Segments implements SegmentLister.
func (d *FileDevice) Segments() []SegmentID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alloc.IDs()
}

// allocated is the entry of every allocated segment.
var allocated = new(struct{})

// has reports whether seg is allocated.
func (d *FileDevice) has(seg SegmentID) bool { return d.alloc.Load(seg) != nil }

// check maps off to a file position without a lock, as MemDevice.segment
// finds a buffer.
func (d *FileDevice) check(off Offset, n int) (int64, error) {
	seg := d.geo.Segment(off)
	within := d.geo.Within(off)
	if within+int64(n) > d.geo.segSize {
		return 0, fmt.Errorf("%w: seg %d off %d len %d", ErrSegmentOverflow, seg, within, n)
	}
	if d.closed.Load() {
		return 0, ErrClosed
	}
	if !d.has(seg) {
		return 0, fmt.Errorf("%w: %d", ErrBadSegment, seg)
	}
	return int64(seg)*d.geo.segSize + within, nil
}

// WriteAt implements Device.
func (d *FileDevice) WriteAt(off Offset, p []byte) error {
	pos, err := d.check(off, len(p))
	if err != nil {
		return err
	}
	if _, err := d.f.WriteAt(p, pos); err != nil {
		if d.closed.Load() { // lost a race with Close
			return ErrClosed
		}
		return fmt.Errorf("storage: file write: %w", err)
	}
	d.ctr.write(len(p))
	return nil
}

// ReadAt implements Device.
func (d *FileDevice) ReadAt(off Offset, p []byte) error {
	pos, err := d.check(off, len(p))
	if err != nil {
		return err
	}
	if _, err := d.f.ReadAt(p, pos); err != nil {
		if d.closed.Load() {
			return ErrClosed
		}
		return fmt.Errorf("storage: file read: %w", err)
	}
	d.ctr.read(len(p))
	return nil
}

// Stats implements Device.
func (d *FileDevice) Stats() Stats {
	d.mu.Lock()
	live := uint64(d.alloc.Len())
	d.mu.Unlock()
	return Stats{
		BytesRead:    d.ctr.bytesRead.Load(),
		BytesWritten: d.ctr.bytesWritten.Load(),
		ReadOps:      d.ctr.readOps.Load(),
		WriteOps:     d.ctr.writeOps.Load(),
		SegmentsLive: live,
	}
}

// ResetStats implements Device.
func (d *FileDevice) ResetStats() { d.ctr.reset() }

// Close implements Device.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return nil
	}
	d.closed.Store(true)
	return d.f.Close()
}
