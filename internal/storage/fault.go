package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjected is the error surfaced by an injected device fault.
var ErrInjected = errors.New("storage: injected device fault")

// FaultOp classifies the device operation a fault hook observes.
type FaultOp int

// Device operations visible to fault hooks.
const (
	FaultWrite FaultOp = iota
	FaultRead
	numFaultOps
)

// String names the operation.
func (op FaultOp) String() string {
	switch op {
	case FaultWrite:
		return "write"
	case FaultRead:
		return "read"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// FaultAction tells the device what to do with an operation.
type FaultAction int

// Fault actions. FaultTear applies only to writes: the first TearAt
// bytes reach the device and the rest are lost, modelling a torn write
// at a power cut. FaultDrop silently discards a write (lost write, no
// error) or serves a read without touching the device.
const (
	FaultNone FaultAction = iota
	FaultTear
	FaultError
	FaultDrop
)

// Fault is a hook's verdict on one operation.
type Fault struct {
	Action FaultAction
	TearAt int   // bytes persisted before the tear (FaultTear)
	Err    error // overrides ErrInjected for FaultError
}

// FaultFunc inspects one device operation and decides its fate. seq
// counts operations of that kind since the device was created (not
// since the hook was installed), off/p describe the I/O. The hook runs
// with the payload the caller passed; it must not retain or mutate p.
type FaultFunc func(op FaultOp, seq int, off Offset, p []byte) Fault

// FaultDevice wraps a Device with an injectable fault hook, mirroring
// rdma.Endpoint.InjectFault for the network plane. Tests layer it
// between the raw device and the VerifyingDevice so torn or lost
// writes are exactly what the checksum layer must catch.
type FaultDevice struct {
	inner Device
	geo   Geometry

	mu    sync.Mutex
	hook  FaultFunc
	seq   [numFaultOps]int
	stats FaultStats
}

// FaultStats counts what the hook did.
type FaultStats struct {
	Writes, Reads  int
	Torn, Dropped  int
	Errored        int
	CorruptedBytes int
}

// NewFaultDevice wraps dev.
func NewFaultDevice(dev Device) *FaultDevice {
	return &FaultDevice{inner: dev, geo: dev.Geometry()}
}

// InjectFault installs (or with nil clears) the fault hook. Operation
// sequence numbers keep counting across installs.
func (d *FaultDevice) InjectFault(fn FaultFunc) {
	d.mu.Lock()
	d.hook = fn
	d.mu.Unlock()
}

// FaultStats returns a snapshot of the hook's decisions.
func (d *FaultDevice) FaultStats() FaultStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

func (d *FaultDevice) decide(op FaultOp, off Offset, p []byte) Fault {
	d.mu.Lock()
	defer d.mu.Unlock()
	seq := d.seq[op]
	d.seq[op]++
	if op == FaultWrite {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	if d.hook == nil {
		return Fault{}
	}
	f := d.hook(op, seq, off, p)
	switch f.Action {
	case FaultTear:
		d.stats.Torn++
	case FaultDrop:
		d.stats.Dropped++
	case FaultError:
		d.stats.Errored++
	}
	return f
}

// WriteAt implements Device.
func (d *FaultDevice) WriteAt(off Offset, p []byte) error {
	f := d.decide(FaultWrite, off, p)
	switch f.Action {
	case FaultTear:
		at := f.TearAt
		if at < 0 {
			at = 0
		}
		if at > len(p) {
			at = len(p)
		}
		if at > 0 {
			if err := d.inner.WriteAt(off, p[:at]); err != nil {
				return err
			}
		}
		return fmt.Errorf("%w: write torn at byte %d of %d", ErrInjected, at, len(p))
	case FaultError:
		if f.Err != nil {
			return f.Err
		}
		return ErrInjected
	case FaultDrop:
		return nil
	}
	return d.inner.WriteAt(off, p)
}

// ReadAt implements Device.
func (d *FaultDevice) ReadAt(off Offset, p []byte) error {
	f := d.decide(FaultRead, off, p)
	switch f.Action {
	case FaultError:
		if f.Err != nil {
			return f.Err
		}
		return ErrInjected
	case FaultDrop:
		return nil
	}
	return d.inner.ReadAt(off, p)
}

// Corrupt flips bits of one stored byte of seg (bypassing the hook),
// simulating silent media corruption: byte at offset within is XORed
// with mask.
func (d *FaultDevice) Corrupt(seg SegmentID, within int64, mask byte) error {
	if mask == 0 {
		return fmt.Errorf("storage: zero corruption mask flips nothing")
	}
	b := make([]byte, 1)
	if err := d.inner.ReadAt(d.geo.Pack(seg, within), b); err != nil {
		return err
	}
	b[0] ^= mask
	if err := d.inner.WriteAt(d.geo.Pack(seg, within), b); err != nil {
		return err
	}
	d.mu.Lock()
	d.stats.CorruptedBytes++
	d.mu.Unlock()
	return nil
}

// Geometry implements Device.
func (d *FaultDevice) Geometry() Geometry { return d.geo }

// UsableCapacity forwards CapacityDevice when the wrapped device
// reserves framing space.
func (d *FaultDevice) UsableCapacity() int64 { return UsableCapacity(d.inner) }

// Alloc implements Device.
func (d *FaultDevice) Alloc() (SegmentID, error) { return d.inner.Alloc() }

// Free implements Device.
func (d *FaultDevice) Free(seg SegmentID) error { return d.inner.Free(seg) }

// has forwards the wrapped device's allocation check (see mayHold).
func (d *FaultDevice) has(seg SegmentID) bool { return mayHold(d.inner, seg) }

// Segments implements SegmentLister when the wrapped device does.
func (d *FaultDevice) Segments() []SegmentID {
	if sl, ok := d.inner.(SegmentLister); ok {
		return sl.Segments()
	}
	return nil
}

// Stats implements Device.
func (d *FaultDevice) Stats() Stats { return d.inner.Stats() }

// ResetStats implements Device.
func (d *FaultDevice) ResetStats() { d.inner.ResetStats() }

// Close implements Device.
func (d *FaultDevice) Close() error { return d.inner.Close() }
