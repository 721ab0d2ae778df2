// Package client implements the Tebis client library: it caches the
// region map to route each operation to the right primary (§3.1), and
// manages both the request and the reply RDMA buffers of every server
// connection so server workers need no allocation synchronization
// (§3.4.1).
package client

import (
	"fmt"
	"sync"
)

// ring allocates variable-size extents from a circular request buffer.
// Extents are freed out of order (replies arrive out of order) but space
// is reclaimed in FIFO order, exactly like the on-wire buffer the server
// consumes sequentially.
//
// An extent belongs to its caller from alloc until free; once freed and
// reclaimed it is recycled for a later alloc, so a caller must not touch
// an extent it has freed.
type ring struct {
	mu   sync.Mutex
	cond *sync.Cond
	size int

	head    int       // next allocation offset
	extents []*extent // live extents, oldest first
	spare   []*extent // reclaimed extents, reused by the next allocs
}

type extent struct {
	off  int
	size int
	done bool
	noop bool
}

func newRing(size int) *ring {
	r := &ring{size: size}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// tail returns the offset of the oldest live extent, and whether any
// extents are outstanding.
func (r *ring) tailLocked() (int, bool) {
	if len(r.extents) == 0 {
		return 0, false
	}
	return r.extents[0].off, true
}

// reclaimLocked drops done extents from the front. The head position is
// never reset: it mirrors the server's rendezvous position, which only
// advances (wrapping happens via exact fill or NOOP padding, in
// lockstep with the server's spinning thread).
func (r *ring) reclaimLocked() {
	n := 0
	for n < len(r.extents) && r.extents[n].done {
		n++
	}
	if n == 0 {
		return
	}
	// Slide the live extents down instead of re-slicing past the done
	// ones: the queue keeps its backing array, and the done extents move
	// to spare, so a steady stream of requests allocates nothing here.
	r.spare = append(r.spare, r.extents[:n]...)
	r.extents = r.extents[:copy(r.extents, r.extents[n:])]
}

// pushLocked appends a fresh extent to the queue, recycling a reclaimed
// one when there is any.
func (r *ring) pushLocked(off, size int, noop bool) *extent {
	var e *extent
	if n := len(r.spare); n > 0 {
		e, r.spare = r.spare[n-1], r.spare[:n-1]
	} else {
		e = new(extent)
	}
	*e = extent{off: off, size: size, noop: noop}
	r.extents = append(r.extents, e)
	return e
}

// alloc reserves size contiguous bytes. When the space at the end of
// the buffer cannot hold the message, alloc atomically reserves that
// residual as a NOOP extent (returned as noopE) and wraps, so that the
// server's sequential rendezvous position stays in lockstep: the caller
// must transmit a NOOP filling noopE (§3.4.2 case b) and free it once
// acknowledged.
func (r *ring) alloc(size int) (e, noopE *extent, err error) {
	if size > r.size {
		return nil, nil, fmt.Errorf("client: request of %d bytes exceeds buffer %d", size, r.size)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		r.reclaimLocked()
		tail, busy := r.tailLocked()
		switch {
		case busy && r.head == tail:
			// Extents occupy the whole ring: wait for replies.
		case !busy || r.head > tail:
			// Free space is [head, end) plus [0, tail).
			if r.head+size <= r.size {
				e := r.pushLocked(r.head, size, false)
				r.head += size
				if r.head == r.size {
					r.head = 0
				}
				return e, noopE, nil
			}
			// Residual end space cannot hold the message: it becomes a
			// NOOP and the message wraps to the front. The front region
			// a wrap opens is capped by the wrap position: if the
			// request exceeds it, no amount of freeing can ever make
			// room, so fail instead of waiting forever.
			if size > r.head {
				return nil, nil, fmt.Errorf("client: request of %d bytes cannot fit ahead of wrap position %d", size, r.head)
			}
			// Reserve the NOOP and take the front in one step, and only
			// once the front [0, tail) has room: a caller parked while
			// holding the NOOP would pin the ring's oldest extent (done
			// extents behind it cannot be reclaimed) while other callers
			// consume the very space it waits for — a deadlock.
			if !busy || size <= tail {
				noopE = r.pushLocked(r.head, r.size-r.head, true)
				e := r.pushLocked(0, size, false)
				r.head = size
				return e, noopE, nil
			}
		default: // head < tail: free space is [head, tail)
			if r.head+size <= tail {
				e := r.pushLocked(r.head, size, false)
				r.head += size
				return e, noopE, nil
			}
		}
		// No room: wait for replies to free extents.
		r.cond.Wait()
	}
}

// free marks an extent done and reclaims any freed prefix.
func (r *ring) free(e *extent) {
	r.mu.Lock()
	e.done = true
	r.reclaimLocked()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// freeList is a first-fit allocator for the reply buffer.
type freeList struct {
	mu   sync.Mutex
	cond *sync.Cond
	// spans are free [off, off+size) ranges sorted by offset.
	spans []span
}

type span struct{ off, size int }

func newFreeList(size int) *freeList {
	f := &freeList{spans: []span{{0, size}}}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// alloc reserves size bytes, blocking until space is available.
func (f *freeList) alloc(size int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		for i := range f.spans {
			if f.spans[i].size >= size {
				off := f.spans[i].off
				f.spans[i].off += size
				f.spans[i].size -= size
				if f.spans[i].size == 0 {
					f.spans = append(f.spans[:i], f.spans[i+1:]...)
				}
				return off
			}
		}
		f.cond.Wait()
	}
}

// free returns a range, coalescing adjacent spans.
func (f *freeList) free(off, size int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := 0
	for i < len(f.spans) && f.spans[i].off < off {
		i++
	}
	f.spans = append(f.spans, span{})
	copy(f.spans[i+1:], f.spans[i:])
	f.spans[i] = span{off, size}
	// Coalesce with neighbours.
	if i+1 < len(f.spans) && f.spans[i].off+f.spans[i].size == f.spans[i+1].off {
		f.spans[i].size += f.spans[i+1].size
		f.spans = append(f.spans[:i+1], f.spans[i+2:]...)
	}
	if i > 0 && f.spans[i-1].off+f.spans[i-1].size == f.spans[i].off {
		f.spans[i-1].size += f.spans[i].size
		f.spans = append(f.spans[:i], f.spans[i+1:]...)
	}
	f.cond.Broadcast()
}
