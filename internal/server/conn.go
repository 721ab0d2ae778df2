package server

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"tebis/internal/admission"
	"tebis/internal/metrics"
	"tebis/internal/rdma"
	"tebis/internal/wire"
)

// clientConn is the server-side state of one client connection: the
// request buffer the client RDMA-writes into, the queue pair the server
// writes replies through, and the spinning thread's rendezvous position.
type clientConn struct {
	id       int
	reqBuf   *rdma.MemoryRegion // on this server; clients write here
	replyQP  *rdma.QP           // server → client one-sided writes
	replyKey uint32             // rkey of the client's reply buffer
	pos      int                // current rendezvous offset in reqBuf
	// poll is the spinning thread's poll of reqBuf: a sweep that finds
	// nothing new takes no lock.
	poll   rdma.Poller
	closed atomic.Bool

	// hotness implements the hot/cold client distinction the paper
	// sketches for scaling to many clients (§3.4.1): connections that
	// keep delivering messages are polled every sweep; idle ones decay
	// to cold and are polled only every coldPollPeriod-th sweep,
	// cutting the spinning thread's rendezvous-point work.
	hotness int
}

// Hot/cold polling parameters (§3.4.1 extension).
const (
	// hotBoost is the hotness granted on every detected message.
	hotBoost = 64
	// coldPollPeriod is how often (in sweeps) cold connections are
	// polled.
	coldPollPeriod = 16
)

// ConnInfo is handed to a connecting client: where to write requests.
type ConnInfo struct {
	// ReqRKey is the rkey of the server-side request buffer.
	ReqRKey uint32
	// BufSize is the circular request buffer size.
	BufSize int
}

// Connect registers a request buffer for a new client and returns its
// coordinates. clientEP is the client's NIC; replyRKey names the reply
// buffer the client registered there (§3.4.1: "the server and the
// client allocate a pair of buffers").
func (s *Server) Connect(clientEP *rdma.Endpoint, replyRKey uint32) (ConnInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ConnInfo{}, ErrClosed
	}
	reqBuf, err := s.cfg.Endpoint.Register(s.cfg.BufferSize)
	if err != nil {
		return ConnInfo{}, err
	}
	conn := &clientConn{
		id:       len(s.conns),
		reqBuf:   reqBuf,
		poll:     reqBuf.Poller(),
		replyQP:  rdma.Connect(s.cfg.Endpoint, clientEP, 1024),
		replyKey: replyRKey,
	}
	s.conns = append(s.conns, conn)
	s.publishConnsLocked()
	return ConnInfo{ReqRKey: reqBuf.RKey(), BufSize: s.cfg.BufferSize}, nil
}

// publishConnsLocked republishes the snapshot of open connections the
// spinning threads walk. A snapshot is never modified once stored, so a
// sweep reads it with one atomic load — no lock, no copy. Caller holds
// s.mu.
func (s *Server) publishConnsLocked() {
	open := make([]*clientConn, 0, len(s.conns))
	for _, conn := range s.conns {
		if !conn.closed.Load() {
			open = append(open, conn)
		}
	}
	s.openConns.Store(&open)
}

// dropConn closes a connection whose buffers or queue pair failed and
// takes it out of the spinning threads' snapshot.
func (s *Server) dropConn(conn *clientConn) {
	if conn.closed.Swap(true) {
		return
	}
	s.mu.Lock()
	s.publishConnsLocked()
	s.mu.Unlock()
}

// task is one detected message handed to a worker.
type task struct {
	conn *clientConn
	hdr  wire.Header
	// body is the payload, copied out of the request buffer (the slot is
	// cleared on detection) — or, of an inline message, out of the
	// spinning thread's header scratch (the next poll reuses it) — into a
	// recycled buffer; nil for a header-only message. Whoever answers the
	// task may read it until the reply is written and then hands it back
	// with recycle: nothing the engine or the reply keeps may point into
	// it.
	body *[]byte
}

// payload returns the task's payload bytes.
func (t task) payload() []byte {
	if t.body == nil {
		return nil
	}
	return *t.body
}

// takeBody returns a buffer of n bytes for a task body, recycled when one
// is on hand.
func (s *Server) takeBody(n int) *[]byte {
	b, _ := s.bodies.Get().(*[]byte)
	if b == nil {
		b = new([]byte)
	}
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
	return b
}

// recycle hands a task's body back once its reply has been written.
func (s *Server) recycle(t task) {
	if t.body != nil {
		s.bodies.Put(t.body)
	}
}

// spin is one spinning thread: it polls the rendezvous points of its
// share of client connections, detects complete messages, zeroes the
// consumed header slots, and dispatches tasks to workers (§3.4.2,
// Figure 5) — or, while the server is idle, answers them itself.
func (s *Server) spin(idx int) {
	defer s.wg.Done()
	next := 0 // current worker for task placement
	idleSpins := 0
	sweep := 0
	hdr := make([]byte, wire.HeaderSize)
	// sp is this thread's own worker, for the tasks it answers itself
	// (dispatch says which) and for its sheds.
	sp := &worker{s: s, spinner: true}
	emptySweeps := &s.spinStats[idx].emptySweeps
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		sweep++
		progress := false
		// Cold-connection skipping only saves work while hot
		// connections keep the thread busy. On an idle thread the
		// sweep would otherwise end in a sleep, and each skipped
		// sweep costs a full sleep quantum (~1ms of timer
		// granularity, not the nominal 20µs) — the latency-attribution
		// harness measured 14ms average detection latency for paced
		// clients from exactly this. So idle sweeps poll everything.
		idle := idleSpins > 0
		for _, conn := range *s.openConns.Load() {
			if conn.closed.Load() || conn.id%s.cfg.SpinThreads != idx {
				continue
			}
			// Cold connections are polled at a reduced frequency
			// (§3.4.1 extension); hotness is only touched by this
			// spinning thread, which owns the connection.
			if conn.hotness <= 0 && !idle && sweep%coldPollPeriod != 0 {
				continue
			}
			t, ok, err := s.detect(conn, hdr)
			if err != nil {
				s.dropConn(conn)
				continue
			}
			if !ok {
				if conn.hotness > 0 {
					conn.hotness--
				}
				continue
			}
			conn.hotness = hotBoost
			progress = true
			// Drain the connection while it stays hot: back-to-back
			// messages from a pipelining client are picked up in one
			// sweep. Each is dispatched after the look behind it, so this
			// thread answers a message itself only when none waits behind.
			for {
				s.charge(metrics.CompOther, s.cfg.Cost.PollPerMessage)
				behind, more, err := s.detect(conn, hdr)
				next = s.dispatch(t, next, sp, !more)
				if err != nil {
					s.dropConn(conn)
				}
				if !more {
					break
				}
				t = behind
			}
		}
		if progress {
			idleSpins = 0
			continue
		}
		// Nothing arrived: spin a little, then yield/sleep briefly.
		// (The paper's spinning thread burns a core; we must share the
		// host with the workload generator.)
		emptySweeps.Add(1)
		idleSpins++
		if idleSpins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// detect checks one connection's rendezvous point for a complete
// message, reading it where it landed: the header's rendezvous word, and
// with it — only once it is there — the 64-byte header into the thread's
// hdr, then, of an out-of-line message, the trailer word. On success the
// payload is copied out for the worker into a recycled body (an inline
// one out of hdr, which the next poll overwrites) — a traced request's
// trace ID, ahead of it, into the task's header instead — the consumed
// area is cleared, and the rendezvous position advances.
func (s *Server) detect(conn *clientConn, hdr []byte) (task, bool, error) {
	if ok, err := conn.poll.ReadIfWord(conn.pos, hdr, wire.Magic); !ok {
		return task{}, false, err
	}
	h, err := wire.DecodeHeader(hdr)
	if err != nil {
		return task{}, false, err
	}
	if h.ReplySize < wire.ReplyLine {
		return task{}, false, fmt.Errorf("server: request names a %d-byte reply slot, smaller than a reply's line", h.ReplySize)
	}
	total := h.WireSize()
	if conn.pos+total > conn.reqBuf.Size() {
		return task{}, false, fmt.Errorf("server: message overruns request buffer")
	}
	var body *[]byte
	switch {
	case h.Inline():
		body = s.takeBody(int(h.PayloadSize))
		copy(*body, wire.InlinePayload(hdr, h))
	case total > wire.HeaderSize:
		// Second rendezvous: whole payload must have landed.
		var trailer [4]byte
		if err := conn.reqBuf.ReadAt(conn.pos+total-len(trailer), trailer[:]); err != nil {
			return task{}, false, err
		}
		if !wire.MagicArrived(trailer[:]) {
			return task{}, false, nil
		}
		if h.Traced() {
			var id [wire.TracePrefix]byte
			if err := conn.reqBuf.ReadAt(conn.pos+wire.HeaderSize, id[:]); err != nil {
				return task{}, false, err
			}
			h.TraceID = wire.TraceIDAt(id[:])
		}
		body = s.takeBody(int(h.PayloadSize))
		if err := conn.reqBuf.ReadAt(conn.pos+h.PayloadOffset(), *body); err != nil {
			return task{}, false, err
		}
	}
	// Clear the consumed area so stale magics never re-trigger (§3.4.2:
	// messages are header-size multiples, so only header-size-aligned
	// slots can hold future headers, and all of them are inside it).
	if err := conn.reqBuf.Clear(conn.pos, total); err != nil {
		return task{}, false, err
	}
	conn.pos += total
	if conn.pos+wire.HeaderSize > conn.reqBuf.Size() {
		// Case (a): the message ended flush with the buffer; wrap the
		// rendezvous point automatically.
		conn.pos = 0
	}
	return task{conn: conn, hdr: h, body: body}, true, nil
}

// dispatch answers a task on the spinning thread's own worker sp while the
// server is idle — no message waits behind it on its connection (alone)
// and no worker queue holds a task — since a hand-off would only add a
// park and a wake (KV-Tandem's fast-path bypass). Otherwise it places the
// task on a worker queue: stay on the current worker while its queue is
// shallow, else move to the next (§3.4.2). So a burst that piles up in a
// connection goes to the workers, and its queue wait reaches the
// admission controller, as before. An op on a frozen region is never
// waited for on the spinning thread; it goes to a queue, where a worker
// parks on it. With admission control enabled, the wake-up threshold is
// the controller's adaptive value (never above the configured one), and
// overloaded states act at the door: a shed task is refused before any
// worker slot or engine work is spent on it, a delayed one paces the
// spinning thread itself (DESIGN.md "Data path").
func (s *Server) dispatch(t task, next int, sp *worker, alone bool) int {
	if t.hdr.Opcode == wire.OpPut || t.hdr.Opcode == wire.OpDelete {
		// Only mutations face the admission door: writes are the
		// expensive replicated path and retry-safe under FlagOverload
		// (nothing applied), while reads stay cheap and — crucially —
		// always able to audit what was acked, so shedding can never
		// make an acknowledged write look lost.
		switch d := s.ctrl.Admit(tenantLabel(t.hdr.Tenant), t.hdr.Priority); d.Action {
		case admission.Shed:
			s.shed(t, &sp.msg)
			return next
		case admission.Delay:
			time.Sleep(d.Delay)
		}
	}
	if alone && s.queuesEmpty() && sp.process(t) {
		return next
	}
	threshold := s.cfg.TaskThreshold
	if adaptive := s.ctrl.Threshold(); adaptive > 0 && adaptive < threshold {
		threshold = adaptive
	}
	for tries := 0; tries < len(s.workers); tries++ {
		w := s.workers[(next+tries)%len(s.workers)]
		if len(w.queue) < threshold {
			w.queue <- t
			return (next + tries) % len(s.workers)
		}
	}
	// All queues over threshold: block on the next one (backpressure).
	s.workers[next%len(s.workers)].queue <- t
	return next % len(s.workers)
}

// queuesEmpty reports whether no task waits in any worker queue.
func (s *Server) queuesEmpty() bool {
	for _, w := range s.workers {
		if len(w.queue) > 0 {
			return false
		}
	}
	return true
}

// tenantLabels holds every wire tenant ID rendered as the label shared
// by stage series, admission counters, and request spans.
var tenantLabels = func() (l [256]string) {
	for t := range l {
		l[t] = "t" + strconv.Itoa(t)
	}
	return l
}()

func tenantLabel(t uint8) string { return tenantLabels[t] }

// replyOp maps a request opcode to its reply opcode, for replies built
// outside a worker (sheds).
func replyOp(op wire.Op) wire.Op {
	switch op {
	case wire.OpPut:
		return wire.OpPutReply
	case wire.OpDelete:
		return wire.OpDeleteReply
	case wire.OpGet, wire.OpGetRest:
		return wire.OpGetReply
	case wire.OpScan:
		return wire.OpScanReply
	}
	return wire.OpNoopReply
}

// shed refuses one task under admission-control overload: the client
// gets FlagError|FlagOverload — nothing was applied — and backs off
// before retrying, so an acked write is still always an applied write.
func (s *Server) shed(t task, mb *wire.ReplyBuf) {
	s.sendReply(mb, t, replyOp(t.hdr.Opcode), wire.FlagError|wire.FlagOverload, shedText)
	s.recycle(t)
}

// Fixed reply payloads, built once.
var (
	shedText          = []byte("shed by admission control")
	replyOverflowText = []byte("reply overflow")
	badOpcodeText     = []byte("bad opcode")
)

// sendReply finishes the reply to t in mb, around payload, and
// RDMA-writes it into the client's reply slot: a 64-byte line carrying
// the header fields a reply is read by, with a payload of up to
// wire.ReplyInlineMax bytes inside it. The write is unsignaled:
// nothing waits on a reply having landed, and a reply lost on the wire is
// the client's to time out, not a completion this thread would wait for
// forever. The caller has made the reply fit the slot; an inline one (a
// shed, a status) fits every slot detect lets in.
func (s *Server) sendReply(mb *wire.ReplyBuf, t task, op wire.Op, flags uint8, payload []byte) {
	msg := mb.Finish(wire.Header{
		Opcode:    op,
		Flags:     flags,
		RegionID:  t.hdr.RegionID,
		RequestID: t.hdr.RequestID,
	}, payload)
	if err := t.conn.replyQP.WriteUnsignaled(t.conn.replyKey, int(t.hdr.ReplyOffset), msg); err != nil {
		s.dropConn(t.conn)
	}
}
