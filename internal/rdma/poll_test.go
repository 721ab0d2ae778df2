package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

const testWord = 0x54454249

// within runs fn and fails the test unless it returns within 2 s — how a
// test shows fn took no lock the test goroutine holds.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s waited for a lock", what)
	}
}

// TestEmptyPollTakesNoLock: once a poll has found nothing, polling the
// region again before anything is written into it returns "nothing"
// without taking the region's lock; a write moves the region on, and the
// next poll looks — and finds — under the lock again. A new poll starts
// out as one that found nothing.
func TestEmptyPollTakesNoLock(t *testing.T) {
	ep := NewEndpoint("n")
	mr, _ := ep.Register(64)
	fill(t, mr, 0, []byte("not a message"))
	poll := mr.Poller()
	p := make([]byte, 16)
	mr.mu.Lock()
	within(t, "a new poll's first look", func() {
		if ok, err := poll.ReadIfWord(8, p, testWord); ok || err != nil {
			t.Errorf("a new poll's first look = %v, %v", ok, err)
		}
	})
	mr.mu.Unlock()
	fill(t, mr, 32, []byte("still not one"))
	if ok, err := poll.ReadIfWord(8, p, testWord); ok || err != nil {
		t.Fatalf("a look after a write that brought no message = %v, %v", ok, err)
	}
	mr.mu.Lock()
	within(t, "a poll of an unchanged region", func() {
		if ok, err := poll.ReadIfWord(8, p, testWord); ok || err != nil {
			t.Errorf("poll of an unchanged region = %v, %v", ok, err)
		}
	})
	mr.mu.Unlock()

	msg := bytes.Repeat([]byte{7}, 16)
	binary.LittleEndian.PutUint32(msg[12:], testWord)
	fill(t, mr, 8, msg)
	if ok, err := poll.ReadIfWord(8, p, testWord); !ok || err != nil || !bytes.Equal(p, msg) {
		t.Fatalf("poll after a write = %v, %v, %x", ok, err, p)
	}
	// A find is not remembered: the next poll looks again.
	mr.mu.Lock()
	looked := make(chan struct{})
	go func() {
		defer close(looked)
		_, _ = poll.ReadIfWord(8, p, testWord)
	}()
	select {
	case <-looked:
		t.Fatal("a poll after a find did not look under the region lock")
	case <-time.After(20 * time.Millisecond):
	}
	mr.mu.Unlock()
	<-looked
	if got := testing.AllocsPerRun(50, func() { _, _ = poll.ReadIfWord(0, p, testWord) }); got != 0 {
		t.Fatalf("Poller.ReadIfWord allocates %v times", got)
	}
}

// TestWriteFindsItsRegionWithoutTheEndpointLock: a write resolves its
// rkey in the endpoint's table, not under the endpoint's mutex; a
// deregistered rkey, one never handed out and one past the table's end
// are all ErrBadRKey, and deregistering one region leaves the others.
func TestWriteFindsItsRegionWithoutTheEndpointLock(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	gone, _ := b.Register(64)
	kept, _ := b.Register(64)
	qp := Connect(a, b, 16)
	b.mu.Lock()
	within(t, "a write", func() {
		if err := qp.Write(kept.RKey(), 0, []byte("x"), 1); err != nil {
			t.Error(err)
		}
	})
	b.mu.Unlock()

	b.Deregister(gone)
	b.Deregister(gone) // twice is harmless
	for _, rkey := range []uint32{gone.RKey(), 0, kept.RKey() + 1, 1 << 31} {
		if err := qp.Write(rkey, 0, []byte("x"), 1); !errors.Is(err, ErrBadRKey) {
			t.Fatalf("write to rkey %d = %v, want ErrBadRKey", rkey, err)
		}
	}
	if err := qp.Write(kept.RKey(), 0, []byte("y"), 2); err != nil {
		t.Fatalf("write to a region still registered: %v", err)
	}
	if again, _ := b.Register(8); again.RKey() == gone.RKey() {
		t.Fatal("a deregistered rkey was handed out again")
	}
}

// TestPollersRaceWritersAndRegistration (run it with -race): pollers
// take every message writers put into their region, each message exactly
// once and whole, while other regions are registered and deregistered
// under the writes.
func TestPollersRaceWritersAndRegistration(t *testing.T) {
	const (
		streams  = 4
		messages = 300
		slot     = 32
	)
	a, b := NewEndpoint("a"), NewEndpoint("b")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if mr, err := b.Register(16); err == nil {
				b.Deregister(mr)
			}
		}
	}()
	defer close(stop)
	for s := 0; s < streams; s++ {
		mr, _ := b.Register(slot)
		poll := mr.Poller() // before the writer starts: the region holds nothing yet
		qp := Connect(a, b, 4)
		wg.Add(2)
		go func() { // writer: one message at a time, each once the last is taken
			defer wg.Done()
			msg := make([]byte, slot)
			for i := 1; i <= messages; i++ {
				for n := range msg[:slot-4] {
					msg[n] = byte(i)
				}
				binary.LittleEndian.PutUint32(msg[slot-4:], uint32(i))
				if err := qp.Write(mr.RKey(), 0, msg, uint64(i)); err != nil {
					t.Error(err)
					return
				}
				if _, err := qp.WaitCompletion(); err != nil {
					t.Error(err)
					return
				}
				for word := make([]byte, 4); ; runtime.Gosched() {
					if err := mr.ReadAt(slot-4, word); err != nil {
						t.Error(err)
						return
					}
					if binary.LittleEndian.Uint32(word) != uint32(i) {
						break // taken
					}
				}
			}
		}()
		go func() { // poller: take message i, check it, clear it
			defer wg.Done()
			p := make([]byte, slot)
			for i := 1; i <= messages; {
				ok, err := poll.ReadIfWord(0, p, uint32(i))
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					runtime.Gosched()
					continue
				}
				for _, c := range p[:slot-4] {
					if c != byte(i) {
						t.Errorf("message %d torn: %x", i, p)
						return
					}
				}
				if err := mr.Clear(0, slot); err != nil {
					t.Error(err)
					return
				}
				i++
			}
		}()
	}
	wg.Wait()
}

// BenchmarkWriteWait is a signaled write and the wait for its completion:
// a replicated log append, an index ship.
func BenchmarkWriteWait(b *testing.B) {
	benchmarkWrite(b, func(qp *QP, rkey uint32, data []byte) error {
		if err := qp.Write(rkey, 0, data, 1); err != nil {
			return err
		}
		_, err := qp.WaitCompletion()
		return err
	})
}

// BenchmarkWriteUnsignaled is an unsignaled write: a request, a reply.
func BenchmarkWriteUnsignaled(b *testing.B) {
	benchmarkWrite(b, func(qp *QP, rkey uint32, data []byte) error {
		return qp.WriteUnsignaled(rkey, 0, data)
	})
}

// benchmarkWrite times write at 8 B and 1 KB into a region of an
// endpoint with a few other regions registered, as a server has.
func benchmarkWrite(b *testing.B, write func(qp *QP, rkey uint32, data []byte) error) {
	for _, size := range []struct {
		name string
		n    int
	}{{"8B", 8}, {"1KB", 1 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			src, dst := NewEndpoint("src"), NewEndpoint("dst")
			for i := 0; i < 8; i++ {
				_, _ = dst.Register(64)
			}
			mr, _ := dst.Register(4 << 10)
			qp := Connect(src, dst, 16)
			data := make([]byte, size.n)
			b.SetBytes(int64(size.n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := write(qp, mr.RKey(), data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEmptyPoll is one poll of a region nothing has been written
// into since the last: what a spinning thread and a client waiting for
// its reply do between messages.
func BenchmarkEmptyPoll(b *testing.B) {
	ep := NewEndpoint("n")
	mr, _ := ep.Register(4 << 10)
	poll := mr.Poller()
	hdr := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, _ := poll.ReadIfWord(0, hdr, testWord); ok {
			b.Fatal("found a message in an empty region")
		}
	}
}
