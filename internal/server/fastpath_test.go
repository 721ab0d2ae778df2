package server

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"tebis/internal/metrics"
	"tebis/internal/region"
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

// TestQueuedAndFrozenOpsGoToWorkers: an op on a frozen region is not
// waited for on the spinning thread — a worker parks on it, and the
// spinning thread keeps answering another region — and while a task
// waits in a worker queue, a new one queues behind it instead of
// overtaking it.
func TestQueuedAndFrozenOpsGoToWorkers(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	frozen := wholeKeyspace("s0")
	frozen.End = []byte("m")
	other := region.Region{ID: 2, Start: []byte("m"), Primary: "s0"}
	for _, r := range []region.Region{frozen, other} {
		if _, err := s.OpenPrimary(r, replica.NoReplication); err != nil {
			t.Fatal(err)
		}
	}
	a, b := newRawClient(t, s), newRawClient(t, s)
	if err := s.Freeze(1); err != nil {
		t.Fatal(err)
	}
	// The spinning thread hands a's op to a worker, which parks on it;
	// the spinning thread is free to answer b.
	a.sendGet(1, 0, []byte("a"))
	stacks := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if bytes.Contains(stacks[:runtime.Stack(stacks, true)], []byte("server.(*Server).acquire(")) {
			break // only a worker waits in acquire
		}
		if time.Now().After(deadline) {
			t.Fatal("no worker parked on the frozen-region op")
		}
	}
	if h, rep := b.get(2, 0, []byte("x")); h.Flags&wire.FlagError != 0 || rep.Found {
		t.Fatalf("get on the other region during the freeze: flags %#x, %+v", h.Flags, rep)
	}

	a.sendGet(1, 512, []byte("b")) // waits in the queue behind the parked op
	for deadline := time.Now().Add(5 * time.Second); s.queuesEmpty(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second frozen-region op never queued")
		}
	}
	b.sendGet(2, 512, []byte("y")) // must queue behind it, not overtake it
	time.Sleep(20 * time.Millisecond)
	if ok, _ := b.replyBuf.ReadIfWord(512, make([]byte, wire.ReplyLine), wire.ReplyMagic); ok {
		t.Fatal("a task overtook one waiting in a worker queue")
	}
	if err := s.Unfreeze(frozen, region.Lease{Region: 1, Holder: "s0"}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		c   *rawClient
		off int
	}{{a, 0}, {a, 512}, {b, 512}} {
		if h, _ := r.c.await(r.off); h.Flags&wire.FlagError != 0 {
			t.Fatalf("reply at %d: flags %#x", r.off, h.Flags)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := served(s); got != 3 {
		t.Fatalf("workers served %d tasks, want the 2 frozen-region ops and the one queued behind them", got)
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
