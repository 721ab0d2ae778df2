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
	closed   atomic.Bool

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
		replyQP:  rdma.Connect(s.cfg.Endpoint, clientEP, 1024),
		replyKey: replyRKey,
	}
	s.conns = append(s.conns, conn)
	return ConnInfo{ReqRKey: reqBuf.RKey(), BufSize: s.cfg.BufferSize}, nil
}

// task is one detected message handed to a worker.
type task struct {
	conn *clientConn
	hdr  wire.Header
	body []byte // payload copy (the buffer slot is zeroed on detection)
	// recvAt is when the spinning thread detected the message; the
	// worker's dispatch span starts here, so queue wait is visible in a
	// sampled request's trace.
	recvAt time.Time
}

// spin is one spinning thread: it polls the rendezvous points of its
// share of client connections, detects complete messages, zeroes the
// consumed header slots, and dispatches tasks to workers (§3.4.2,
// Figure 5).
func (s *Server) spin(idx int) {
	defer s.wg.Done()
	next := 0 // current worker for task placement
	idleSpins := 0
	sweep := 0
	hdr := make([]byte, wire.HeaderSize)
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
		s.mu.Lock()
		conns := append([]*clientConn(nil), s.conns...)
		s.mu.Unlock()
		for _, conn := range conns {
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
				conn.closed.Store(true)
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
			s.charge(metrics.CompOther, s.cfg.Cost.PollPerMessage)
			next = s.dispatch(t, next)
			// Drain the connection while it stays hot: back-to-back
			// messages from a pipelining client are picked up in one
			// sweep.
			for {
				t, ok, err := s.detect(conn, hdr)
				if err != nil {
					conn.closed.Store(true)
					break
				}
				if !ok {
					break
				}
				s.charge(metrics.CompOther, s.cfg.Cost.PollPerMessage)
				next = s.dispatch(t, next)
			}
		}
		if progress {
			idleSpins = 0
			continue
		}
		// Nothing arrived: spin a little, then yield/sleep briefly.
		// (The paper's spinning thread burns a core; we must share the
		// host with the workload generator.)
		idleSpins++
		if idleSpins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// detect checks one connection's rendezvous point for a complete
// message; on success it copies the message out, zeroes the consumed
// header slots, and advances the rendezvous position.
func (s *Server) detect(conn *clientConn, hdr []byte) (task, bool, error) {
	if err := conn.reqBuf.ReadAt(conn.pos, hdr); err != nil {
		return task{}, false, err
	}
	if !wire.HeaderArrived(hdr) {
		return task{}, false, nil
	}
	h, err := wire.DecodeHeader(hdr)
	if err != nil {
		return task{}, false, err
	}
	padded := wire.PaddedPayloadSize(int(h.PayloadSize))
	total := wire.HeaderSize + padded
	if conn.pos+total > conn.reqBuf.Size() {
		return task{}, false, fmt.Errorf("server: message overruns request buffer")
	}
	// Second rendezvous: whole payload must have landed.
	if padded > 0 {
		tail := make([]byte, 4)
		if err := conn.reqBuf.ReadAt(conn.pos+total-4, tail); err != nil {
			return task{}, false, err
		}
		probe := make([]byte, wire.HeaderSize)
		copy(probe[wire.HeaderSize-4:], tail)
		if !wire.HeaderArrived(probe) { // same magic check
			return task{}, false, nil
		}
	}
	body := make([]byte, h.PayloadSize)
	if h.PayloadSize > 0 {
		if err := conn.reqBuf.ReadAt(conn.pos+wire.HeaderSize, body); err != nil {
			return task{}, false, err
		}
	}
	// Zero the possible header slots of the consumed area so stale
	// magics never re-trigger (the padding trick of §3.4.2: only
	// header-size-aligned slots can hold future headers).
	zero := make([]byte, wire.HeaderSize)
	for off := conn.pos; off < conn.pos+total; off += wire.HeaderSize {
		if err := conn.reqBuf.WriteLocal(off, zero); err != nil {
			return task{}, false, err
		}
	}
	conn.pos += total
	if conn.pos+wire.HeaderSize > conn.reqBuf.Size() {
		// Case (a): the message ended flush with the buffer; wrap the
		// rendezvous point automatically.
		conn.pos = 0
	}
	t := task{conn: conn, hdr: h, body: body}
	if h.TraceID != 0 {
		t.recvAt = time.Now()
	}
	return t, true, nil
}

// dispatch places a task on a worker queue: stay on the current worker
// while its queue is shallow, else move to the next (§3.4.2). With
// admission control enabled, the wake-up threshold is the controller's
// adaptive value (never above the configured one), and overloaded
// states act at the door: a shed task is refused before any worker
// slot or engine work is spent on it, a delayed one paces the spinning
// thread itself (DESIGN.md "Data path").
func (s *Server) dispatch(t task, next int) int {
	if t.hdr.Opcode == wire.OpPut || t.hdr.Opcode == wire.OpDelete {
		// Only mutations face the admission door: writes are the
		// expensive replicated path and retry-safe under FlagOverload
		// (nothing applied), while reads stay cheap and — crucially —
		// always able to audit what was acked, so shedding can never
		// make an acknowledged write look lost.
		switch d := s.ctrl.Admit(tenantLabel(t.hdr.Tenant), t.hdr.Priority); d.Action {
		case admission.Shed:
			s.shed(t)
			return next
		case admission.Delay:
			time.Sleep(d.Delay)
		}
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

// tenantLabel renders a wire tenant ID as the label shared by stage
// series, admission counters, and request spans.
func tenantLabel(t uint8) string {
	return "t" + strconv.Itoa(int(t))
}

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
func (s *Server) shed(t task) {
	payload := []byte("shed by admission control")
	total := wire.MessageSize(len(payload))
	if total > int(t.hdr.ReplySize) {
		return // client violated the minimum slot size; drop
	}
	msg := make([]byte, total)
	if _, err := wire.EncodeMessage(msg, wire.Header{
		Opcode:    replyOp(t.hdr.Opcode),
		Flags:     wire.FlagError | wire.FlagOverload,
		RegionID:  t.hdr.RegionID,
		RequestID: t.hdr.RequestID,
	}, payload); err != nil {
		return
	}
	if err := s.replyWrite(t.conn, int(t.hdr.ReplyOffset), msg); err != nil {
		t.conn.closed.Store(true)
	}
}
