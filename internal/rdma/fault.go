package rdma

import (
	"errors"
	"fmt"
	"time"
)

// FaultOp classifies the operation a fault hook inspects.
type FaultOp int

// Operation classes observable by fault hooks.
const (
	// FaultWrite is a one-sided QP.Write or QP.WriteUnsignaled (log
	// records, index segments, requests and replies, a replica's control
	// requests and acks).
	FaultWrite FaultOp = iota

	numFaultOps
)

// String implements fmt.Stringer.
func (op FaultOp) String() string {
	switch op {
	case FaultWrite:
		return "write"
	}
	return fmt.Sprintf("fault-op(%d)", int(op))
}

// FaultAction is what an injected fault does to the operation.
type FaultAction int

// Fault verdicts.
const (
	// FaultNone lets the operation proceed untouched.
	FaultNone FaultAction = iota
	// FaultDrop makes the operation vanish on the wire: the caller sees
	// success, but no data is delivered and no completion is generated —
	// the silent failure mode the timeout/retry machinery exists to
	// catch.
	FaultDrop
	// FaultError fails the operation with Fault.Err (ErrInjected when
	// nil), modelling a NIC-reported transport error.
	FaultError
	// FaultDelay stalls the operation for Fault.Delay, then proceeds.
	FaultDelay
)

// ErrInjected is the default error a FaultError verdict produces.
var ErrInjected = errors.New("rdma: injected fault")

// Fault is a fault hook's verdict on one operation.
type Fault struct {
	Action FaultAction
	// Delay is the FaultDelay stall.
	Delay time.Duration
	// Err overrides ErrInjected for FaultError.
	Err error
}

func (f Fault) error() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

// FaultFunc decides the fate of one operation. It runs on the operating
// goroutine with the initiator and target endpoint names, the
// per-endpoint 0-based sequence number of this operation class, and the
// payload about to go on the wire (read-only; a request line can be
// matched with wire.DecodeHeader, a reply or ack line with
// wire.DecodeReplyHeader). Tests install hooks to kill a
// replica at an exact protocol step — e.g. between IndexSegment and
// CompactionDone, or mid-Sync.
type FaultFunc func(op FaultOp, from, to string, seq int, payload []byte) Fault

// InjectFault installs (or, with nil, clears) the endpoint's fault
// hook. The hook sees every write touching this endpoint as
// initiator or target, and its verdict applies before any effect of the
// operation. Sequence numbers keep counting across InjectFault calls.
func (ep *Endpoint) InjectFault(fn FaultFunc) {
	if fn == nil {
		ep.faultFn.Store(nil)
		return
	}
	ep.faultFn.Store(&fn)
}

// evalFault consults both endpoints' hooks (initiator first); the first
// non-FaultNone verdict wins.
func evalFault(op FaultOp, from, to *Endpoint, payload []byte) Fault {
	if f := from.fault(op, from.name, to.name, payload); f.Action != FaultNone {
		return f
	}
	return to.fault(op, from.name, to.name, payload)
}

func (ep *Endpoint) fault(op FaultOp, from, to string, payload []byte) Fault {
	seq := ep.faultSeq[op].Add(1) - 1
	fn := ep.faultFn.Load()
	if fn == nil {
		return Fault{}
	}
	return (*fn)(op, from, to, int(seq), payload)
}
