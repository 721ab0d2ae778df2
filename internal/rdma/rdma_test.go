package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestOneSidedWriteLandsInRemoteMemory(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	mr, err := b.Register(1024)
	if err != nil {
		t.Fatal(err)
	}
	qp := Connect(a, b, 16)
	data := []byte("one-sided payload")
	if err := qp.Write(mr.RKey(), 100, data, 7); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := mr.ReadAt(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("remote memory = %q", got)
	}
	c, err := qp.WaitCompletion()
	if err != nil || c.WRID != 7 || c.Bytes != len(data) {
		t.Fatalf("completion = %+v, %v", c, err)
	}
	if a.TxBytes() != uint64(len(data)) || b.RxBytes() != uint64(len(data)) {
		t.Fatalf("tx=%d rx=%d", a.TxBytes(), b.RxBytes())
	}
}

func TestWriteBoundsAndRKeyChecks(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	mr, _ := b.Register(64)
	qp := Connect(a, b, 4)
	if err := qp.Write(999, 0, []byte("x"), 1); !errors.Is(err, ErrBadRKey) {
		t.Fatalf("bad rkey err = %v", err)
	}
	if err := qp.Write(mr.RKey(), 60, []byte("12345678"), 1); !errors.Is(err, ErrBounds) {
		t.Fatalf("bounds err = %v", err)
	}
	if err := qp.Write(mr.RKey(), -1, []byte("x"), 1); !errors.Is(err, ErrBounds) {
		t.Fatalf("negative offset err = %v", err)
	}
}

func TestDeregisteredRegionRejected(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	mr, _ := b.Register(64)
	b.Deregister(mr)
	qp := Connect(a, b, 4)
	if err := qp.Write(mr.RKey(), 0, []byte("x"), 1); !errors.Is(err, ErrBadRKey) {
		t.Fatalf("deregistered write err = %v", err)
	}
}

// TestEndpointClose: a closed endpoint is a NIC that went down with its
// machine — its regions are gone, Register fails with ErrAlreadyClosed,
// a write to it or from it fails with ErrDisconnected and lands nothing,
// and Closed says so to a peer. Closing twice is harmless, and the other
// endpoint's regions and QPs work on.
func TestEndpointClose(t *testing.T) {
	a, b, c := NewEndpoint("a"), NewEndpoint("b"), NewEndpoint("c")
	mb, _ := b.Register(64)
	ma, _ := a.Register(64)
	mc, _ := c.Register(64)
	ab, ba, ac := Connect(a, b, 4), Connect(b, a, 4), Connect(a, c, 4)
	b.Close()
	b.Close()
	if !b.Closed() || a.Closed() {
		t.Fatalf("Closed: b %v, a %v", b.Closed(), a.Closed())
	}
	if _, err := b.Register(64); !errors.Is(err, ErrAlreadyClosed) {
		t.Fatalf("Register on a closed endpoint = %v, want ErrAlreadyClosed", err)
	}
	if err := ab.Write(mb.RKey(), 0, []byte("x"), 1); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("a write to a closed endpoint = %v, want ErrDisconnected", err)
	}
	if err := ba.WriteUnsignaled(ma.RKey(), 0, []byte("x")); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("a write from a closed endpoint = %v, want ErrDisconnected", err)
	}
	if b.region(mb.RKey()) != nil {
		t.Fatal("a closed endpoint kept a region registered")
	}
	got := make([]byte, 1)
	if err := ma.ReadAt(0, got); err != nil || got[0] != 0 || a.RxBytes() != 0 || b.TxBytes() != 0 {
		t.Fatalf("a write from the closed endpoint landed: %q, rx %d, tx %d, %v", got, a.RxBytes(), b.TxBytes(), err)
	}
	if err := ac.Write(mc.RKey(), 0, []byte("x"), 1); err != nil {
		t.Fatalf("a write between open endpoints = %v", err)
	}
}

// TestCloseWakesReceiver: a goroutine blocked receiving a completion
// wakes with ErrDisconnected when the QP closes, and a second Close is
// harmless.
func TestCloseWakesReceiver(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	qba := Connect(b, a, 4)
	done := make(chan error, 1)
	go func() {
		_, err := qba.WaitCompletion()
		done <- err
	}()
	qba.Close()
	if err := <-done; !errors.Is(err, ErrDisconnected) {
		t.Fatalf("WaitCompletion blocked across the close = %v", err)
	}
	qba.Close()
	if _, err := qba.WaitCompletion(); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("WaitCompletion after close = %v", err)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	mr, _ := b.Register(64)
	qp := Connect(a, b, 4)
	qp.Close()
	if err := qp.Write(mr.RKey(), 0, []byte("x"), 1); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v", err)
	}
}

func TestCQOverflow(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	mr, _ := b.Register(64)
	qp := Connect(a, b, 1)
	if err := qp.Write(mr.RKey(), 0, []byte{1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := qp.Write(mr.RKey(), 0, []byte{1}, 2); !errors.Is(err, ErrCQOverflow) {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentWritersDisjointRanges(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	mr, _ := b.Register(8 * 256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qp := Connect(a, b, 256)
			buf := bytes.Repeat([]byte{byte(w + 1)}, 256)
			if err := qp.Write(mr.RKey(), w*256, buf, uint64(w)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		got := make([]byte, 256)
		if err := mr.ReadAt(w*256, got); err != nil {
			t.Fatal(err)
		}
		for _, bb := range got {
			if bb != byte(w+1) {
				t.Fatalf("range %d corrupted: %d", w, bb)
			}
		}
	}
	if a.TxBytes() != 8*256 {
		t.Fatalf("tx = %d", a.TxBytes())
	}
}

func TestLocalRegionAccess(t *testing.T) {
	ep := NewEndpoint("n")
	mr, _ := ep.Register(32)
	fill(t, mr, 4, []byte("abcd"))
	got := make([]byte, 4)
	if err := mr.ReadAt(4, got); err != nil || string(got) != "abcd" {
		t.Fatalf("ReadAt = %q, %v", got, err)
	}
	if err := mr.ReadAt(30, got); !errors.Is(err, ErrBounds) {
		t.Fatalf("err = %v", err)
	}
	if mr.Size() != 32 {
		t.Fatalf("Size = %d", mr.Size())
	}
}

// fill puts data into mr at off the way anything gets there: a one-sided
// write.
func fill(t *testing.T, mr *MemoryRegion, off int, data []byte) {
	t.Helper()
	qp := Connect(NewEndpoint("filler"), mr.ep, 1)
	if err := qp.Write(mr.RKey(), off, data, 0); err != nil {
		t.Fatal(err)
	}
}

// TestReadIfWordCopiesOnlyWhatArrived: a poll reads a range only when the
// word in its last four bytes is the one it waits for — until then it
// leaves the caller's buffer alone — under one lock acquisition and
// without allocating.
func TestReadIfWordCopiesOnlyWhatArrived(t *testing.T) {
	const word = 0x54454249
	ep := NewEndpoint("n")
	mr, _ := ep.Register(64)
	msg := bytes.Repeat([]byte{7}, 16)
	fill(t, mr, 8, msg[:12]) // everything but the word
	p := bytes.Repeat([]byte{0xEE}, 16)
	if ok, err := mr.ReadIfWord(8, p, word); ok || err != nil || !bytes.Equal(p, bytes.Repeat([]byte{0xEE}, 16)) {
		t.Fatalf("before the word: %v, %v, buffer %x", ok, err, p)
	}
	binary.LittleEndian.PutUint32(msg[12:], word)
	fill(t, mr, 8, msg)
	if ok, err := mr.ReadIfWord(8, p, word); !ok || err != nil || !bytes.Equal(p, msg) {
		t.Fatalf("after the word: %v, %v, buffer %x", ok, err, p)
	}
	for _, r := range [][2]int{{-1, 16}, {56, 16}, {0, 3}} {
		if ok, err := mr.ReadIfWord(r[0], make([]byte, r[1]), word); ok || !errors.Is(err, ErrBounds) {
			t.Fatalf("ReadIfWord(%d, %d bytes) = %v, %v, want ErrBounds", r[0], r[1], ok, err)
		}
	}
	if got := testing.AllocsPerRun(50, func() { _, _ = mr.ReadIfWord(8, p, word) }); got != 0 {
		t.Fatalf("ReadIfWord allocates %v times", got)
	}
}

func TestResetCounters(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	mr, _ := b.Register(64)
	qp := Connect(a, b, 4)
	_ = qp.Write(mr.RKey(), 0, []byte("xy"), 1)
	a.ResetCounters()
	b.ResetCounters()
	if a.TxBytes() != 0 || b.RxBytes() != 0 {
		t.Fatal("counters not reset")
	}
}

// TestClearZeroesARangeUnderTheRegionLock: the owner retires a consumed
// message with one call, not a buffer of zeros per header slot.
func TestClearZeroesARangeUnderTheRegionLock(t *testing.T) {
	ep := NewEndpoint("n")
	mr, _ := ep.Register(64)
	fill(t, mr, 0, bytes.Repeat([]byte{0xFF}, 64))
	if err := mr.Clear(8, 40); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := mr.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if want := byte(0xFF); (i >= 8 && i < 48) == (b == want) {
			t.Fatalf("byte %d = %#x after Clear(8, 40)", i, b)
		}
	}
	for _, r := range [][2]int{{-1, 4}, {60, 8}, {0, -1}} {
		if err := mr.Clear(r[0], r[1]); !errors.Is(err, ErrBounds) {
			t.Fatalf("Clear(%d, %d) = %v, want ErrBounds", r[0], r[1], err)
		}
	}
	if got := testing.AllocsPerRun(50, func() { _ = mr.Clear(0, 64) }); got != 0 {
		t.Fatalf("Clear allocates %v times", got)
	}
}

// TestQueuedCompletionArmsNoTimer: Write queues its completion before it
// returns, so the bounded wait that follows a successful write finds it
// and pays for no timer — while a wait with nothing queued still times
// out (TestFaultDropWriteVanishesSilently pins the dropped-write side).
func TestQueuedCompletionArmsNoTimer(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	mr, _ := b.Register(64)
	qp := Connect(a, b, 4)
	data := []byte("record")
	roundTrip := func() {
		if err := qp.Write(mr.RKey(), 0, data, 7); err != nil {
			t.Fatal(err)
		}
		if c, err := qp.WaitCompletionTimeout(time.Hour); err != nil || c.WRID != 7 {
			t.Fatalf("completion = %+v, %v", c, err)
		}
	}
	if got := testing.AllocsPerRun(100, roundTrip); got != 0 {
		t.Fatalf("a write and its bounded completion wait allocate %v times: a timer was armed", got)
	}
	if _, err := qp.WaitCompletionTimeout(5 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("empty CQ: err = %v, want ErrTimeout", err)
	}
}
