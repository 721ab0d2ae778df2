package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"tebis/internal/metrics"
	"tebis/internal/rdma"
	"tebis/internal/replica"
	"tebis/internal/wire"
)

// put and get send one request to a region and take its reply from the
// slot at off; sendGet leaves the reply where it lands.
func (c *rawClient) put(region uint16, off int, key, value []byte) wire.Header {
	c.t.Helper()
	req := wire.PutReq{Key: key, Value: value}
	c.send(wire.Header{Opcode: wire.OpPut, RegionID: region, RequestID: 1, ReplyOffset: uint32(off), ReplySize: 512},
		req.Encode(c.mb.Reserve(req.Size())))
	h, _ := c.await(off)
	return h
}

func (c *rawClient) sendGet(region uint16, off int, key []byte) {
	c.t.Helper()
	req := wire.GetReq{Key: key}
	c.send(wire.Header{Opcode: wire.OpGet, RegionID: region, RequestID: 2, ReplyOffset: uint32(off), ReplySize: 512},
		req.Encode(c.mb.Reserve(req.Size())))
}

func (c *rawClient) get(region uint16, off int, key []byte) (wire.Header, wire.GetReply) {
	c.t.Helper()
	c.sendGet(region, off, key)
	h, payload := c.await(off)
	rep, err := wire.DecodeGetReply(payload)
	if err != nil {
		c.t.Fatal(err)
	}
	return h, rep
}

// served sums the tasks the server's workers took from their queues. Read
// it after Close: each worker's goroutine writes its own count.
func served(s *Server) (n int) {
	for _, w := range s.workers {
		n += w.served
	}
	return n
}

// TestIdleServerAnswersOnItsSpinner: with no task waiting in a worker
// queue, the spinning thread answers a request itself — 1 000 sequential
// puts and gets reach no worker — and the answers are the engine's, with
// the same cycle charges per request as the queue path.
func TestIdleServerAnswersOnItsSpinner(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	if _, err := s.OpenPrimary(wholeKeyspace("s0"), replica.NoReplication); err != nil {
		t.Fatal(err)
	}
	c := newRawClient(t, s)
	const n = 500
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key%04d", i))
		if h := c.put(1, 0, key, key); h.Flags&wire.FlagError != 0 {
			t.Fatalf("put %s: flags %#x", key, h.Flags)
		}
		if h, rep := c.get(1, 0, key); h.Flags&wire.FlagError != 0 || !rep.Found || !bytes.Equal(rep.Value, key) {
			t.Fatalf("get %s = %+v, flags %#x", key, rep, h.Flags)
		}
	}
	if err := s.Close(); err != nil { // the last reply's charge follows its write
		t.Fatal(err)
	}
	cy := s.cfg.Cycles.Snapshot()
	if want := uint64(2*n) * s.cfg.Cost.ReplyPerMessage; cy[metrics.CompReply] != want {
		t.Errorf("reply cycles %d, want %d: one ReplyPerMessage a request", cy[metrics.CompReply], want)
	}
	if got := served(s); got != 0 {
		t.Fatalf("workers took %d of %d tasks off their queues on an idle server", got, 2*n)
	}
}

// TestMessageWithAnotherBehindItGoesToAWorker: a message the spinning
// thread finds with another already waiting behind it on its connection
// — a pipelining client, a burst — goes to a worker, so a burst reaches
// the workers and its queue wait the admission controller.
func TestMessageWithAnotherBehindItGoesToAWorker(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	if _, err := s.OpenPrimary(wholeKeyspace("s0"), replica.NoReplication); err != nil {
		t.Fatal(err)
	}
	c := newRawClient(t, s)
	get := func(slot, replyOff int) {
		t.Helper()
		req := wire.GetReq{Key: []byte("k")}
		msg := c.mb.Finish(wire.Header{Opcode: wire.OpGet, RegionID: 1, RequestID: uint64(slot + 1),
			ReplyOffset: uint32(replyOff), ReplySize: 512}, req.Encode(c.mb.Reserve(req.Size())))
		if err := c.qp.WriteUnsignaled(c.info.ReqRKey, slot*wire.HeaderSize, msg); err != nil {
			t.Fatal(err)
		}
	}
	get(1, 512) // the second first: the first is found with it behind
	get(0, 0)
	for _, off := range []int{0, 512} {
		if h, _ := c.await(off); h.Flags&wire.FlagError != 0 {
			t.Fatalf("reply at %d: flags %#x", off, h.Flags)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if served(s) == 0 {
		t.Fatal("a message with another behind it was answered on the spinning thread")
	}
}

// TestQueuedOpsGoToWorkers: while a task waits in a worker queue, a new
// one queues behind it instead of overtaking it on the spinning thread.
// A fault hook on the server's NIC holds a worker in its reply write to
// the first request, so the requests found behind it wait in its queue.
func TestQueuedOpsGoToWorkers(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	if _, err := s.OpenPrimary(wholeKeyspace("s0"), replica.NoReplication); err != nil {
		t.Fatal(err)
	}
	const heldID = 100
	held, release := make(chan struct{}), make(chan struct{})
	var unblock sync.Once
	defer unblock.Do(func() { close(release) }) // a failure must not leave the worker held
	s.cfg.Endpoint.InjectFault(func(op rdma.FaultOp, _, _ string, _ int, payload []byte) rdma.Fault {
		if h, err := wire.DecodeReplyHeader(payload); op == rdma.FaultWrite && err == nil && h.RequestID == heldID {
			close(held)
			<-release
		}
		return rdma.Fault{}
	})
	a, b := newRawClient(t, s), newRawClient(t, s)
	// Three gets land at once, the first last, so the spinning thread
	// finds each with the next behind it but the last: the first goes to
	// a worker, which is held replying to it, and the other two wait in
	// its queue.
	for slot := 2; slot >= 0; slot-- {
		req := wire.GetReq{Key: []byte("k")}
		msg := a.mb.Finish(wire.Header{Opcode: wire.OpGet, RegionID: 1, RequestID: uint64(heldID + slot),
			ReplyOffset: uint32(slot * 512), ReplySize: 512}, req.Encode(a.mb.Reserve(req.Size())))
		if err := a.qp.WriteUnsignaled(a.info.ReqRKey, slot*wire.HeaderSize, msg); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("no worker replied to the first request")
	}
	b.sendGet(1, 0, []byte("x")) // must queue behind them, not overtake them
	time.Sleep(20 * time.Millisecond)
	if ok, _ := b.replyBuf.ReadIfWord(0, make([]byte, wire.ReplyLine), wire.ReplyMagic); ok {
		t.Fatal("a task overtook one waiting in a worker queue")
	}
	unblock.Do(func() { close(release) })
	for _, r := range []struct {
		c   *rawClient
		off int
	}{{a, 0}, {a, 512}, {a, 1024}, {b, 0}} {
		if h, _ := r.c.await(r.off); h.Flags&wire.FlagError != 0 {
			t.Fatalf("reply at %d: flags %#x", r.off, h.Flags)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := served(s); got != 4 {
		t.Fatalf("workers served %d tasks, want the held one and the three queued behind it", got)
	}
}

// BenchmarkRoundTrip is one request through a server and back: written
// into its request buffer, detected, run on an in-process region with no
// replication, and answered into the caller's reply buffer — an S-sized
// put and get, sequentially, from a raw test client (whose own work and
// allocations are in the figures).
func BenchmarkRoundTrip(b *testing.B) {
	s, _ := newTestServer(b, "s0")
	if _, err := s.OpenPrimary(wholeKeyspace("s0"), replica.NoReplication); err != nil {
		b.Fatal(err)
	}
	c := newRawClient(b, s)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%012d", i))
		c.put(1, 0, keys[i], []byte("0123456789abcdef"))
	}
	b.Run("put", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.put(1, 0, keys[i%len(keys)], []byte("0123456789abcdef"))
		}
	})
	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.get(1, 0, keys[i%len(keys)])
		}
	})
}
