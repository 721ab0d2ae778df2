// Package storage provides the segment-granular virtual storage device
// that backs every Tebis node.
//
// Tebis (like Kreon) represents all on-device structures — the value log
// and the per-level B+-tree indexes — as lists of fixed-size segments
// (2 MiB in the paper). A device offset packs the segment number into its
// high-order bits and the byte offset within the segment into its
// low-order bits, which is what makes the Send-Index pointer rewrite an
// O(1) high-bit swap per pointer.
//
// The device counts every byte read and written; those counters are the
// ground truth for the paper's I/O amplification metric. Two
// implementations are provided: an in-memory device (used by tests and
// benchmarks, standing in for the paper's NVMe SSD; see DESIGN.md "Packages
// and substitutions") and a file-backed device for the standalone binaries.
package storage

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"tebis/internal/metrics"
)

// SegmentID identifies one fixed-size segment on a device.
type SegmentID uint32

// NilSegment is the reserved invalid segment ID. Segment 0 is never
// handed out so that the zero Offset is never a valid location.
const NilSegment SegmentID = 0

// Offset is a device location: segment number in the high-order bits,
// byte offset within the segment in the low-order bits.
type Offset uint64

// NilOffset is the invalid device offset.
const NilOffset Offset = 0

// Geometry fixes the segment size of a device and packs/unpacks offsets.
type Geometry struct {
	segSize  int64
	segShift uint
}

// NewGeometry returns the geometry for the given segment size, which
// must be a power of two and at least 512 bytes.
func NewGeometry(segmentSize int64) (Geometry, error) {
	if segmentSize < 512 || segmentSize&(segmentSize-1) != 0 {
		return Geometry{}, fmt.Errorf("storage: segment size %d is not a power of two >= 512", segmentSize)
	}
	return Geometry{
		segSize:  segmentSize,
		segShift: uint(bits.TrailingZeros64(uint64(segmentSize))),
	}, nil
}

// SegmentSize returns the segment size in bytes.
func (g Geometry) SegmentSize() int64 { return g.segSize }

// Pack builds a device offset from a segment ID and an in-segment offset.
func (g Geometry) Pack(seg SegmentID, within int64) Offset {
	return Offset(uint64(seg)<<g.segShift | uint64(within))
}

// Segment extracts the segment number of an offset.
func (g Geometry) Segment(off Offset) SegmentID {
	return SegmentID(uint64(off) >> g.segShift)
}

// Within extracts the in-segment byte offset of an offset.
func (g Geometry) Within(off Offset) int64 {
	return int64(uint64(off) & (uint64(g.segSize) - 1))
}

// Rebase replaces the segment number of off with seg, keeping the
// in-segment offset. This is the primitive behind the Send-Index rewrite.
func (g Geometry) Rebase(off Offset, seg SegmentID) Offset {
	return g.Pack(seg, g.Within(off))
}

// Stats is a snapshot of device traffic counters.
type Stats struct {
	BytesRead    uint64
	BytesWritten uint64
	ReadOps      uint64
	WriteOps     uint64
	SegmentsLive uint64
}

// Families renders the counters as the device metric families — the
// numerator of the paper's I/O amplification metric.
func (st Stats) Families() []metrics.Family {
	return []metrics.Family{
		metrics.Counter("tebis_device_read_bytes_total",
			"Bytes read from the storage device.", metrics.Value(float64(st.BytesRead))),
		metrics.Counter("tebis_device_write_bytes_total",
			"Bytes written to the storage device.", metrics.Value(float64(st.BytesWritten))),
		metrics.Gauge("tebis_device_segments_live",
			"Segments currently allocated on the device.", metrics.Value(float64(st.SegmentsLive))),
	}
}

// Meter is a Device as a metrics.Source, for a device no server owns (a
// server reports its device's families itself).
type Meter struct{ Device }

// Collect implements metrics.Source.
func (m Meter) Collect() []metrics.Family { return m.Stats().Families() }

// Device is the storage abstraction every Tebis subsystem writes to.
//
// All reads and writes are segment-bounded: an I/O may not cross a
// segment boundary, matching the paper's segment-aligned layout.
type Device interface {
	// Geometry returns the device geometry (segment size).
	Geometry() Geometry
	// Alloc reserves a fresh segment and returns its ID.
	Alloc() (SegmentID, error)
	// Free returns a segment to the allocator. Its contents become
	// invalid.
	Free(SegmentID) error
	// WriteAt writes p at the device offset off. The write must stay
	// inside the segment off points into.
	WriteAt(off Offset, p []byte) error
	// ReadAt fills p from the device offset off. The read must stay
	// inside the segment off points into.
	ReadAt(off Offset, p []byte) error
	// Stats returns a snapshot of the traffic counters.
	Stats() Stats
	// ResetStats zeroes the traffic counters (segment liveness is kept).
	ResetStats()
	// Close releases resources held by the device.
	Close() error
}

// VectorReader is implemented by devices that read a batch of ranges
// in one call more cheaply than with a ReadAt per range.
type VectorReader interface {
	// ReadV is ReadV for this device.
	ReadV(offs []Offset, bufs [][]byte) (int, error)
}

// ReadV fills bufs[i] from the device offset offs[i], for each i in
// order, and returns how many ranges it filled: what len(offs) ReadAt
// calls that stop at the first error read, return and add to the
// device's counters. On an error the ranges before the failing one are
// filled and counted. A device with a vectored read of its own serves
// the batch; any other takes one ReadAt per range, so each passes the
// device's own checks and hooks.
func ReadV(dev Device, offs []Offset, bufs [][]byte) (int, error) {
	if vr, ok := dev.(VectorReader); ok {
		return vr.ReadV(offs, bufs)
	}
	for i, off := range offs {
		if err := dev.ReadAt(off, bufs[i]); err != nil {
			return i, err
		}
	}
	return len(offs), nil
}

type counters struct {
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	readOps      atomic.Uint64
	writeOps     atomic.Uint64
}

func (c *counters) read(n int) {
	c.bytesRead.Add(uint64(n))
	c.readOps.Add(1)
}

// readN counts n reads of bytes bytes in all: what n read calls add,
// with one add per counter.
func (c *counters) readN(n, bytes int) {
	c.bytesRead.Add(uint64(bytes))
	c.readOps.Add(uint64(n))
}

func (c *counters) write(n int) {
	c.bytesWritten.Add(uint64(n))
	c.writeOps.Add(1)
}

func (c *counters) reset() {
	c.bytesRead.Store(0)
	c.bytesWritten.Store(0)
	c.readOps.Store(0)
	c.writeOps.Store(0)
}

// Errors reported by devices.
var (
	ErrOutOfSpace      = errors.New("storage: device out of segments")
	ErrBadSegment      = errors.New("storage: segment not allocated")
	ErrSegmentOverflow = errors.New("storage: I/O crosses segment boundary")
	ErrClosed          = errors.New("storage: device closed")
	// ErrDoubleFree reports a Free of a segment that was already freed.
	// It wraps ErrBadSegment so callers that only distinguish
	// "not allocated" keep working.
	ErrDoubleFree = errors.New("storage: segment already freed")
)

// SegmentLister is implemented by devices that can enumerate their
// allocated segments; recovery and scrubbing use it to walk a device
// without an external manifest.
type SegmentLister interface {
	// Segments returns the allocated segment IDs in ascending order.
	Segments() []SegmentID
}

// CapacityDevice is implemented by devices that reserve part of each
// segment for their own framing; writers that fill segments must cap
// payloads at UsableCapacity instead of the geometric segment size.
type CapacityDevice interface {
	// UsableCapacity returns the payload bytes available per segment.
	UsableCapacity() int64
}

// UsableCapacity returns the per-segment payload capacity of dev: the
// device's own notion when it reserves framing space, the full segment
// size otherwise.
func UsableCapacity(dev Device) int64 {
	if cd, ok := dev.(CapacityDevice); ok {
		return cd.UsableCapacity()
	}
	return dev.Geometry().SegmentSize()
}

// MemDevice is an in-memory segment device with byte-accurate traffic
// accounting. It stands in for the paper's NVMe SSD (DESIGN.md "Packages
// and substitutions").
type MemDevice struct {
	geo   Geometry
	maxN  int
	nodes *NodeCache

	mu       sync.Mutex         // serializes Alloc, Free and Close
	segments SegmentTable[byte] // a segment's entry is its buffer's first byte
	free     []SegmentID
	next     SegmentID
	closed   atomic.Bool

	ctr counters
}

// NewMemDevice creates an in-memory device with the given segment size.
// maxSegments bounds capacity; 0 means unbounded.
func NewMemDevice(segmentSize int64, maxSegments int) (*MemDevice, error) {
	geo, err := NewGeometry(segmentSize)
	if err != nil {
		return nil, err
	}
	return &MemDevice{
		geo:   geo,
		maxN:  maxSegments,
		nodes: newNodeCache(geo),
		next:  1, // segment 0 is NilSegment
	}, nil
}

// Geometry implements Device.
func (d *MemDevice) Geometry() Geometry { return d.geo }

// NodeCache implements NodeCacher. Alloc, Free and WriteAt end the
// incarnation of the segment they touch.
func (d *MemDevice) NodeCache() *NodeCache { return d.nodes }

// Alloc implements Device.
func (d *MemDevice) Alloc() (SegmentID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return NilSegment, ErrClosed
	}
	var id SegmentID
	if n := len(d.free); n > 0 {
		id = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		if d.maxN > 0 && int(d.next) > d.maxN {
			return NilSegment, ErrOutOfSpace
		}
		id = d.next
		d.next++
	}
	// Its first byte keeps the buffer alive and finds it again, so
	// publishing the segment allocates nothing but the buffer.
	d.segments.Store(id, &make([]byte, d.geo.segSize)[0])
	d.nodes.retire(id)
	return id, nil
}

// Free implements Device.
func (d *MemDevice) Free(id SegmentID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	if d.segments.Load(id) == nil {
		if id != NilSegment && id < d.next {
			return fmt.Errorf("%w: %w: %d", ErrBadSegment, ErrDoubleFree, id)
		}
		return fmt.Errorf("%w: %d", ErrBadSegment, id)
	}
	d.segments.Store(id, nil)
	d.free = append(d.free, id)
	d.nodes.retire(id)
	d.nodes.unlink(id)
	return nil
}

// Segments implements SegmentLister.
func (d *MemDevice) Segments() []SegmentID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.segments.IDs()
}

// has reports whether seg is allocated.
func (d *MemDevice) has(seg SegmentID) bool { return d.segments.Load(seg) != nil }

// segment finds the buffer of off's segment without a lock. Close marks
// the device closed before it empties the table, so a read that finds no
// entry because of a Close reports ErrClosed.
func (d *MemDevice) segment(off Offset, n int) ([]byte, int64, error) {
	seg := d.geo.Segment(off)
	within := d.geo.Within(off)
	if within+int64(n) > d.geo.segSize {
		return nil, 0, fmt.Errorf("%w: seg %d off %d len %d", ErrSegmentOverflow, seg, within, n)
	}
	buf := d.segments.Load(seg)
	if d.closed.Load() {
		return nil, 0, ErrClosed
	}
	if buf == nil {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadSegment, seg)
	}
	return unsafe.Slice(buf, d.geo.segSize), within, nil
}

// WriteAt implements Device.
func (d *MemDevice) WriteAt(off Offset, p []byte) error {
	buf, within, err := d.segment(off, len(p))
	if err != nil {
		return err
	}
	copy(buf[within:], p)
	d.nodes.retire(d.geo.Segment(off))
	d.ctr.write(len(p))
	return nil
}

// ReadAt implements Device.
func (d *MemDevice) ReadAt(off Offset, p []byte) error {
	buf, within, err := d.segment(off, len(p))
	if err != nil {
		return err
	}
	copy(p, buf[within:])
	d.ctr.read(len(p))
	return nil
}

// ReadV implements VectorReader in three passes. The first loads the
// first byte of each range, with no lock and no atomic write between
// the loads, so that their cache misses overlap — the in-memory
// device's way of serving a queue of reads in parallel, where a ReadAt
// per range, each ending in the counters' atomic adds, takes them one
// at a time. The second copies the ranges, and the third adds to the
// counters once what a ReadAt per range would have added.
func (d *MemDevice) ReadV(offs []Offset, bufs [][]byte) (int, error) {
	n := len(offs)
	var err error
	var touched byte
	for i, off := range offs {
		p, within := d.segments.Load(d.geo.Segment(off)), d.geo.Within(off)
		if p == nil || within+int64(len(bufs[i])) > d.geo.segSize {
			if _, _, err = d.segment(off, len(bufs[i])); err != nil {
				n = i
				break
			}
			continue // allocated since: the copy finds it
		}
		touched += *(*byte)(unsafe.Add(unsafe.Pointer(p), within))
	}
	total := 0
	for i, off := range offs[:n] {
		buf, within, e := d.segment(off, len(bufs[i]))
		if e != nil { // freed since: the reads stop where one ReadAt would have failed
			n, err = i, e
			break
		}
		total += copy(bufs[i], buf[within:])
	}
	d.ctr.readN(n, total)
	runtime.KeepAlive(touched) // nothing reads it: this keeps the loads
	return n, err
}

// Stats implements Device.
func (d *MemDevice) Stats() Stats {
	d.mu.Lock()
	live := uint64(d.segments.Len())
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
func (d *MemDevice) ResetStats() { d.ctr.reset() }

// Close implements Device.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed.Store(true)
	d.segments.Reset()
	d.free = nil
	return nil
}
