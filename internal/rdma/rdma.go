// Package rdma simulates the RDMA data plane Tebis runs on: registered
// memory regions, reliable queue pairs, one-sided WRITE operations, and
// work-completion events (§2 "Remote Direct Memory Access").
//
// The simulation enforces the two properties the paper's design depends
// on (DESIGN.md "Packages and substitutions"):
//
//  1. One-sided writes never involve the target CPU. A Write memcpys
//     into the target's registered memory, which the target discovers by
//     polling it; no target-side code runs.
//  2. All traffic is byte-counted per endpoint, giving the network
//     amplification metric.
//
// A one-sided write is signaled or not, as verbs' selective signaling
// lets a poster choose. QP.Write queues a work completion once the bytes
// are in remote memory; it is for writes whose completion is the ack the
// initiator waits for — a replicated log append, an index ship, a state
// transfer. QP.WriteUnsignaled queues none; it is for writes whose
// delivery shows some other way — a request is answered by a reply, and
// nothing waits on a reply having landed — so the request path takes no
// completion nobody reads. A write a fault drops is never completed, so
// only a bounded wait (WaitCompletionTimeout) or the initiator's own
// deadline notices it.
//
// There is no two-sided send or receive: every message, a replica's
// control requests and acks among them, is a write into a region its
// receiver reads, as in Tebis (§3.4).
package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Errors reported by the package.
var (
	ErrBadRKey       = errors.New("rdma: unknown rkey")
	ErrBounds        = errors.New("rdma: access outside registered region")
	ErrDisconnected  = errors.New("rdma: queue pair disconnected")
	ErrCQOverflow    = errors.New("rdma: completion queue overflow")
	ErrAlreadyClosed = errors.New("rdma: endpoint closed")
	ErrTimeout       = errors.New("rdma: operation timed out")
)

// Endpoint is one node's NIC: a registry of memory regions plus traffic
// counters.
type Endpoint struct {
	name string

	// regions is the rkey table: the registered region of every rkey, nil
	// once deregistered. Register and Deregister rebuild it under mu and
	// never edit a published table, so a Write finds its target with one
	// atomic load and no lock.
	mu      sync.Mutex
	regions atomic.Pointer[[]*MemoryRegion]
	nextKey uint32
	// closed is set once by Close; every write reads it at both ends.
	closed atomic.Bool

	tx atomic.Uint64
	rx atomic.Uint64

	// faultFn is the installed fault hook (nil when none); faultSeq
	// counts operations per class for the hook's seq argument. Every
	// Write reads both at both ends, so neither takes a lock.
	faultFn  atomic.Pointer[FaultFunc]
	faultSeq [numFaultOps]atomic.Int64
}

// NewEndpoint creates a NIC for a node.
func NewEndpoint(name string) *Endpoint {
	ep := &Endpoint{name: name, nextKey: 1}
	ep.regions.Store(new([]*MemoryRegion))
	return ep
}

// Name returns the endpoint's node name.
func (ep *Endpoint) Name() string { return ep.name }

// TxBytes returns total bytes written out of this endpoint.
func (ep *Endpoint) TxBytes() uint64 { return ep.tx.Load() }

// RxBytes returns total bytes received into this endpoint's memory.
func (ep *Endpoint) RxBytes() uint64 { return ep.rx.Load() }

// ResetCounters zeroes the traffic counters.
func (ep *Endpoint) ResetCounters() {
	ep.tx.Store(0)
	ep.rx.Store(0)
}

// MemoryRegion is registered memory remotely writable via its RKey.
type MemoryRegion struct {
	ep   *Endpoint
	rkey uint32
	// mu orders remote writes with the owner's reads and clears. A plain
	// mutex, not a read-write one: a Poller's empty look takes no lock,
	// so what locks are left are mostly writes.
	mu  sync.Mutex
	buf []byte
	// gen counts the remote writes that have landed; a Poller that found
	// nothing looks again, under mu, only once it has moved.
	gen atomic.Uint64
}

// Register pins size bytes of memory and returns the region.
func (ep *Endpoint) Register(size int) (*MemoryRegion, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed.Load() {
		return nil, ErrAlreadyClosed
	}
	mr := &MemoryRegion{ep: ep, rkey: ep.nextKey, buf: make([]byte, size)}
	ep.nextKey++
	table := make([]*MemoryRegion, mr.rkey+1)
	copy(table, *ep.regions.Load())
	table[mr.rkey] = mr
	ep.regions.Store(&table)
	return mr, nil
}

// Close takes the endpoint down, as a NIC goes down with its machine:
// every region is deregistered, Register fails with ErrAlreadyClosed, and
// a write to or from the endpoint fails with ErrDisconnected. Closing
// twice is harmless.
func (ep *Endpoint) Close() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.closed.Store(true)
	ep.regions.Store(new([]*MemoryRegion))
}

// Closed reports whether the endpoint has been closed: whether a peer
// waiting on it for a message waits in vain.
func (ep *Endpoint) Closed() bool { return ep.closed.Load() }

// Deregister unpins the region; subsequent remote writes fail.
func (ep *Endpoint) Deregister(mr *MemoryRegion) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if old := *ep.regions.Load(); int(mr.rkey) < len(old) && old[mr.rkey] == mr {
		table := slices.Clone(old)
		table[mr.rkey] = nil
		ep.regions.Store(&table)
	}
}

// region returns the region registered under rkey, or nil.
func (ep *Endpoint) region(rkey uint32) *MemoryRegion {
	if table := *ep.regions.Load(); int(rkey) < len(table) {
		return table[rkey]
	}
	return nil
}

// RKey returns the region's remote access key.
func (mr *MemoryRegion) RKey() uint32 { return mr.rkey }

// Size returns the region length.
func (mr *MemoryRegion) Size() int { return len(mr.buf) }

// ReadAt copies from the region under the region lock, for
// race-free polling of bytes a remote writer may touch.
func (mr *MemoryRegion) ReadAt(off int, p []byte) error {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	if off < 0 || off+len(p) > len(mr.buf) {
		return fmt.Errorf("%w: read [%d,%d) of %d", ErrBounds, off, off+len(p), len(mr.buf))
	}
	copy(p, mr.buf[off:])
	return nil
}

// ReadIfWord is ReadAt behind a rendezvous test: under one acquisition
// of the region lock it compares the last four bytes of
// [off, off+len(p)), little-endian, with want — where a message's
// rendezvous word sits — and copies the range into p only when they
// match. A poll that finds nothing copies nothing, and one that finds a
// message has it without a second look.
func (mr *MemoryRegion) ReadIfWord(off int, p []byte, want uint32) (bool, error) {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	end := off + len(p)
	if off < 0 || len(p) < 4 || end > len(mr.buf) {
		return false, fmt.Errorf("%w: read [%d,%d) of %d", ErrBounds, off, end, len(mr.buf))
	}
	if binary.LittleEndian.Uint32(mr.buf[end-4:end]) != want {
		return false, nil
	}
	copy(p, mr.buf[off:end])
	return true, nil
}

// Poller is one reader's poll of a region: a look that found nothing is
// not repeated — and takes no lock — until a remote write has landed in
// the region since. Only a Write puts a message into a region, so the
// skipped look would have found nothing too. A Poller is one goroutine's.
type Poller struct {
	mr *MemoryRegion
	// empty is one more than the write generation the last look that
	// found nothing started at; 0 once a look found something.
	empty uint64
}

// Poller returns a poll of the region that takes it to hold nothing the
// caller waits for as of now — the caller knows: a request buffer no
// client has written yet, a reply slot whose request has not been sent —
// so its first look waits for a write.
func (mr *MemoryRegion) Poller() Poller { return Poller{mr: mr, empty: mr.gen.Load() + 1} }

// ReadIfWord is MemoryRegion.ReadIfWord, skipped while the region holds
// nothing new since the last look that found nothing.
func (p *Poller) ReadIfWord(off int, buf []byte, want uint32) (bool, error) {
	gen := p.mr.gen.Load()
	if p.empty == gen+1 {
		return false, nil
	}
	ok, err := p.mr.ReadIfWord(off, buf, want)
	if !ok && err == nil {
		p.empty = gen + 1
	} else {
		p.empty = 0
	}
	return ok, err
}

// Clear zeroes [off, off+n) under the region lock: how the owner retires
// a consumed message (or a flushed log tail) so no stale rendezvous
// magic can re-trigger, in one lock acquisition and without a buffer of
// zeros to copy from.
func (mr *MemoryRegion) Clear(off, n int) error {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	if off < 0 || n < 0 || off+n > len(mr.buf) {
		return fmt.Errorf("%w: clear [%d,%d) of %d", ErrBounds, off, off+n, len(mr.buf))
	}
	clear(mr.buf[off : off+n])
	return nil
}

// Completion is a work-completion event of a reliable queue pair.
type Completion struct {
	// WRID is the caller-chosen work-request ID.
	WRID uint64
	// Bytes is the payload size of the completed operation.
	Bytes int
}

// QP is one direction of a reliable connection: operations initiated at
// the local endpoint targeting the remote endpoint. Use a pair of QPs
// for bidirectional traffic.
type QP struct {
	local  *Endpoint
	remote *Endpoint

	cq        chan Completion
	done      chan struct{}
	closeOnce sync.Once
}

// Connect creates a reliable QP from local to remote with the given
// completion-queue depth.
func Connect(local, remote *Endpoint, cqDepth int) *QP {
	return &QP{
		local:  local,
		remote: remote,
		cq:     make(chan Completion, cqDepth),
		done:   make(chan struct{}),
	}
}

// Local returns the initiating endpoint.
func (qp *QP) Local() *Endpoint { return qp.local }

// Write performs a one-sided RDMA WRITE of data into the remote region
// identified by rkey at offset off. The remote CPU is not involved; a
// completion is delivered to the local CQ when the data is in remote
// memory (reliable connection semantics, §3.2). It is WriteUnsignaled
// plus that completion.
func (qp *QP) Write(rkey uint32, off int, data []byte, wrID uint64) error {
	if landed, err := qp.write(rkey, off, data); !landed {
		return err
	}
	select {
	case qp.cq <- Completion{WRID: wrID, Bytes: len(data)}:
		return nil
	default:
	}
	select {
	case <-qp.done:
		return ErrDisconnected
	default:
		return ErrCQOverflow
	}
}

// WriteUnsignaled is Write without the completion (selective signaling):
// the same checks, fault verdict, copy, write generation and byte counts,
// but nothing is queued on the CQ — for a write whose delivery the
// initiator learns some other way, as a client learns from the reply
// that its request landed.
func (qp *QP) WriteUnsignaled(rkey uint32, off int, data []byte) error {
	_, err := qp.write(rkey, off, data)
	return err
}

// write is the one implementation of a one-sided WRITE; landed reports
// whether data reached remote memory, so Write completes only what did.
func (qp *QP) write(rkey uint32, off int, data []byte) (landed bool, err error) {
	select {
	case <-qp.done:
		return false, ErrDisconnected
	default:
	}
	if qp.local.closed.Load() || qp.remote.closed.Load() {
		return false, ErrDisconnected
	}
	switch f := evalFault(FaultWrite, qp.local, qp.remote, data); f.Action {
	case FaultDrop:
		return false, nil // vanished on the wire: no data, no completion
	case FaultError:
		return false, f.error()
	case FaultDelay:
		time.Sleep(f.Delay)
	}
	mr := qp.remote.region(rkey)
	if mr == nil {
		return false, fmt.Errorf("%w: %d at %s", ErrBadRKey, rkey, qp.remote.name)
	}
	mr.mu.Lock()
	if off < 0 || off+len(data) > len(mr.buf) {
		mr.mu.Unlock()
		return false, fmt.Errorf("%w: write [%d,%d) of %d", ErrBounds, off, off+len(data), len(mr.buf))
	}
	copy(mr.buf[off:], data)
	mr.mu.Unlock()
	mr.gen.Add(1)

	qp.local.tx.Add(uint64(len(data)))
	qp.remote.rx.Add(uint64(len(data)))
	return true, nil
}

// WaitCompletion blocks for the next completion (or QP teardown). Write
// queues its completion before it returns, so the common call takes one
// that is already there with a single receive.
func (qp *QP) WaitCompletion() (Completion, error) {
	select {
	case c := <-qp.cq:
		return c, nil
	default:
	}
	select {
	case c := <-qp.cq:
		return c, nil
	case <-qp.done:
		// Drain any completion that raced with the close.
		select {
		case c := <-qp.cq:
			return c, nil
		default:
			return Completion{}, ErrDisconnected
		}
	}
}

// WaitCompletionTimeout is WaitCompletion bounded by d: it returns
// ErrTimeout when no completion arrives in time — how an initiator
// notices a write that vanished (a dead or faulted peer never
// completes). Write queues its completion before it returns, so the
// common call finds one waiting and arms no timer; only a write that
// was dropped or is still in flight pays for the deadline.
func (qp *QP) WaitCompletionTimeout(d time.Duration) (Completion, error) {
	select {
	case c := <-qp.cq:
		return c, nil
	default:
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case c := <-qp.cq:
		return c, nil
	case <-qp.done:
		select {
		case c := <-qp.cq:
			return c, nil
		default:
			return Completion{}, ErrDisconnected
		}
	case <-timer.C:
		return Completion{}, ErrTimeout
	}
}

// Close tears the QP down, waking a blocked completer; later writes
// fail with ErrDisconnected. Closing twice is harmless.
func (qp *QP) Close() {
	qp.closeOnce.Do(func() { close(qp.done) })
}
