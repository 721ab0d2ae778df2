package server

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"tebis/internal/rdma"
	"tebis/internal/replica"
	"tebis/internal/wire"
)

// rawClient is a client's side of one connection, done by hand: a reply
// buffer the server writes into and a queue pair into the server's
// request buffer.
type rawClient struct {
	t        testing.TB
	conn     *clientConn
	info     ConnInfo
	qp       *rdma.QP
	replyBuf *rdma.MemoryRegion
	mb       wire.MsgBuf
	pos      int // where send writes the next request
}

func newRawClient(t testing.TB, s *Server) *rawClient {
	t.Helper()
	ep := rdma.NewEndpoint("raw")
	replyBuf, err := ep.Register(4096)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Connect(ep, replyBuf.RKey())
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	conn := s.conns[len(s.conns)-1]
	s.mu.Unlock()
	return &rawClient{t: t, conn: conn, info: info, qp: rdma.Connect(ep, s.cfg.Endpoint, 16), replyBuf: replyBuf}
}

// send writes one request with the given payload at the client's next
// request-buffer position, wrapping as the server does, unsignaled as the
// client library writes it.
func (c *rawClient) send(h wire.Header, payload []byte) {
	c.t.Helper()
	msg := c.mb.Finish(h, payload)
	if c.pos+len(msg) > c.info.BufSize {
		c.t.Fatalf("request at %d overruns the %d-byte buffer", c.pos, c.info.BufSize)
	}
	if err := c.qp.WriteUnsignaled(c.info.ReqRKey, c.pos, msg); err != nil {
		c.t.Fatal(err)
	}
	if c.pos += len(msg); c.pos+wire.HeaderSize > c.info.BufSize {
		c.pos = 0
	}
}

// await polls the reply slot at off until a reply lands there, takes
// it, and returns its header and payload.
func (c *rawClient) await(off int) (wire.Header, []byte) {
	c.t.Helper()
	line := make([]byte, wire.ReplyLine)
	deadline := time.Now().Add(5 * time.Second)
	for tries := 0; ; tries++ {
		if ok, err := c.replyBuf.ReadIfWord(off, line, wire.ReplyMagic); err != nil {
			c.t.Fatal(err)
		} else if ok {
			break
		}
		if tries < 1000 {
			runtime.Gosched()
			continue
		}
		if time.Now().After(deadline) {
			c.t.Fatal("no reply")
		}
		time.Sleep(50 * time.Microsecond)
	}
	h, err := wire.DecodeReplyHeader(line)
	if err != nil {
		c.t.Fatal(err)
	}
	msg := make([]byte, h.ReplyWireSize())
	if err := c.replyBuf.ReadAt(off, msg); err != nil {
		c.t.Fatal(err)
	}
	_, payload, err := wire.DecodeReply(msg)
	if err != nil {
		c.t.Fatal(err)
	}
	if err := c.replyBuf.Clear(off, len(msg)); err != nil {
		c.t.Fatal(err)
	}
	return h, payload
}

// TestReplyThatOutgrowsItsSlot: an error reply too long for the client's
// slot keeps its routing flags — a client told only "error" would not
// refresh its map or back off — and as much of its text as the slot
// holds; any slot of at least a reply's line holds some, inline. A
// result that outgrows the slot still becomes the overflow error.
func TestReplyThatOutgrowsItsSlot(t *testing.T) {
	for _, fixed := range [][]byte{shedText, replyOverflowText, badOpcodeText} {
		if len(fixed) > wire.ReplyInlineMax {
			t.Errorf("the fixed reply %q does not fit a reply's line", fixed)
		}
	}
	s, _ := newTestServer(t, "s0")
	c := newRawClient(t, s)
	w := newWorker(s, 0)
	text := bytes.Repeat([]byte("the region moved on; "), 20)
	for _, tc := range []struct {
		name      string
		slot      int
		flags     uint8
		payload   []byte
		wantFlags uint8
		want      []byte
	}{
		{"wrong region into a put's slot", wire.ReplyMessageSize(wire.StatusReply{}.Size()),
			wire.FlagError | wire.FlagWrongRegion, text,
			wire.FlagError | wire.FlagWrongRegion | wire.FlagInline, text[:wire.ReplyInlineMax]},
		{"overload into a two-line slot", 2 * wire.ReplyLine,
			wire.FlagError | wire.FlagOverload, text,
			wire.FlagError | wire.FlagOverload, text[:wire.MaxPayload(2*wire.ReplyLine)]},
		{"a result into a line-sized slot", wire.ReplyLine,
			0, bytes.Repeat([]byte("v"), 500),
			wire.FlagError | wire.FlagInline, replyOverflowText},
		{"an error that fits", 1024,
			wire.FlagError | wire.FlagWrongRegion, text[:100],
			wire.FlagError | wire.FlagWrongRegion, text[:100]},
	} {
		tk := task{conn: c.conn, hdr: wire.Header{Opcode: wire.OpGet, RegionID: 1, RequestID: 7, ReplySize: uint32(tc.slot)}}
		w.reply(tk, wire.OpGetReply, tc.flags, tc.payload)
		h, got := c.await(0)
		if h.Opcode != wire.OpGetReply || h.RequestID != 7 || h.Flags != tc.wantFlags || !bytes.Equal(got, tc.want) {
			t.Errorf("%s: flags %#x and %d payload bytes %q, want %#x and %d", tc.name, h.Flags, len(got), got, tc.wantFlags, len(tc.want))
		}
		if h.ReplyWireSize() > tc.slot {
			t.Errorf("%s: a %d-byte reply into a %d-byte slot", tc.name, h.ReplyWireSize(), tc.slot)
		}
	}
}

// TestADroppedReplyWedgesNoOne: a reply lost on the wire posts no
// completion, and the spinning thread waits for none, so with one
// spinning thread a client whose replies are all dropped does not stop
// the server from answering the next client. The lost reply is its own
// client's to time out.
func TestADroppedReplyWedgesNoOne(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	if _, err := s.OpenPrimary(wholeKeyspace("s0"), replica.NoReplication); err != nil {
		t.Fatal(err)
	}
	a, b := newRawClient(t, s), newRawClient(t, s)
	dropped := make(chan struct{})
	var once sync.Once
	a.qp.Local().InjectFault(func(op rdma.FaultOp, from, _ string, _ int, _ []byte) rdma.Fault {
		if op != rdma.FaultWrite || from != "s0" {
			return rdma.Fault{}
		}
		once.Do(func() { close(dropped) })
		return rdma.Fault{Action: rdma.FaultDrop}
	})
	// A thread that did wait for the lost reply's completion would hold up
	// Close; closing the queue pair wakes it.
	t.Cleanup(a.conn.replyQP.Close)
	a.sendGet(1, 0, []byte("a"))
	select {
	case <-dropped:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never answered a's get")
	}
	b.sendGet(1, 0, []byte("b"))
	line := make([]byte, wire.ReplyLine)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if ok, err := b.replyBuf.ReadIfWord(0, line, wire.ReplyMagic); err != nil {
			t.Fatal(err)
		} else if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("b's get was not answered within 2 s of a's reply being dropped")
		}
	}
	if h, _ := b.await(0); h.Flags&wire.FlagError != 0 {
		t.Fatalf("b's get: flags %#x", h.Flags)
	}
}

// TestRequestNamingNoReplySlotDropsTheConnection: a reply is at least a
// 64-byte line, so a request whose reply slot is smaller cannot be
// answered without writing past it; the spinning thread treats it like
// any other malformed message and closes the connection. A line-sized
// slot is enough and is served.
func TestRequestNamingNoReplySlotDropsTheConnection(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	if _, err := s.OpenPrimary(wholeKeyspace("s0"), replica.NoReplication); err != nil {
		t.Fatal(err)
	}
	c := newRawClient(t, s)
	var mb wire.MsgBuf
	send := func(off int, replySize uint32) {
		t.Helper()
		req := wire.GetReq{Key: []byte("nokey")}
		msg := mb.Finish(wire.Header{Opcode: wire.OpGet, RegionID: 1, RequestID: 9, ReplySize: replySize},
			req.Encode(mb.Reserve(req.Size())))
		if len(msg) != wire.HeaderSize {
			t.Fatalf("a %d-byte get request", len(msg))
		}
		if err := c.qp.WriteUnsignaled(c.info.ReqRKey, off, msg); err != nil {
			t.Fatal(err)
		}
	}
	send(0, wire.ReplyLine)
	if h, payload := c.await(0); h.Flags&wire.FlagError != 0 || !h.Inline() {
		t.Fatalf("get into a line-sized slot: flags %#x, %q", h.Flags, payload)
	} else if rep, err := wire.DecodeGetReply(payload); err != nil || rep.Found {
		t.Fatalf("get of a missing key = %+v, %v", rep, err)
	}
	send(wire.HeaderSize, wire.ReplyLine-1)
	for deadline := time.Now().Add(5 * time.Second); !c.conn.closed.Load(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the connection stayed open")
		}
	}
}
