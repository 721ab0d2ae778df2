package rdma

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestFaultDropWriteVanishesSilently(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	mr, _ := b.Register(64)
	qp := Connect(a, b, 4)

	b.InjectFault(func(op FaultOp, from, to string, seq int, payload []byte) Fault {
		if op == FaultWrite {
			return Fault{Action: FaultDrop}
		}
		return Fault{}
	})
	if err := qp.Write(mr.RKey(), 0, []byte("dropped"), 1); err != nil {
		t.Fatalf("dropped write must look successful, got %v", err)
	}
	// No data landed, no completion, no bytes counted.
	got := make([]byte, 7)
	if err := mr.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 7)) {
		t.Fatalf("dropped write delivered data: %q", got)
	}
	if _, err := qp.WaitCompletionTimeout(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("completion after drop = %v, want ErrTimeout", err)
	}
	if a.TxBytes() != 0 || b.RxBytes() != 0 {
		t.Fatalf("dropped write counted bytes: tx=%d rx=%d", a.TxBytes(), b.RxBytes())
	}

	// Clearing the hook restores normal operation.
	b.InjectFault(nil)
	if err := qp.Write(mr.RKey(), 0, []byte("landed"), 2); err != nil {
		t.Fatal(err)
	}
	if c, err := qp.WaitCompletion(); err != nil || c.WRID != 2 {
		t.Fatalf("completion = %+v, %v", c, err)
	}
}

func TestFaultErrorAndDelay(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	mr, _ := b.Register(64)
	qp := Connect(a, b, 4)

	boom := errors.New("nic on fire")
	a.InjectFault(func(op FaultOp, from, to string, seq int, payload []byte) Fault {
		switch seq {
		case 0:
			return Fault{Action: FaultError}
		case 1:
			return Fault{Action: FaultError, Err: boom}
		case 2:
			return Fault{Action: FaultDelay, Delay: 5 * time.Millisecond}
		}
		return Fault{}
	})
	if err := qp.Write(mr.RKey(), 0, []byte("x"), 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("default injected err = %v", err)
	}
	if err := qp.Write(mr.RKey(), 0, []byte("x"), 1); !errors.Is(err, boom) {
		t.Fatalf("custom injected err = %v", err)
	}
	start := time.Now()
	if err := qp.Write(mr.RKey(), 0, []byte("delayed"), 3); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("delayed write returned after only %v", d)
	}
	if c, err := qp.WaitCompletion(); err != nil || c.WRID != 3 {
		t.Fatalf("completion after delay = %+v, %v", c, err)
	}
}

func TestFaultMatchesNthSend(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	ab := Connect(a, b, 4)
	ba := Connect(b, a, 4)

	// Drop exactly the second send targeting b.
	b.InjectFault(func(op FaultOp, from, to string, seq int, payload []byte) Fault {
		if op == FaultSend && seq == 1 {
			return Fault{Action: FaultDrop}
		}
		return Fault{}
	})
	ba.PostRecv(make([]byte, 64))
	ba.PostRecv(make([]byte, 64))
	ba.PostRecv(make([]byte, 64))
	for i, want := range []string{"first", "second", "third"} {
		if err := ab.Send(ba, []byte(want)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for _, want := range []string{"first", "third"} {
		msg, err := ba.RecvTimeout(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if string(msg) != want {
			t.Fatalf("got %q, want %q", msg, want)
		}
	}
	if _, err := ba.RecvTimeout(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("dropped send arrived anyway: %v", err)
	}
}

func TestSendTimeoutWithoutPostedBuffer(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	ab := Connect(a, b, 4)
	ba := Connect(b, a, 4)

	start := time.Now()
	err := ab.SendTimeout(ba, []byte("nobody listens"), 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("send without receiver = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("timed out after only %v", d)
	}

	// A buffer posted in time unblocks the send.
	done := make(chan error, 1)
	go func() { done <- ab.SendTimeout(ba, []byte("hello"), time.Second) }()
	time.Sleep(2 * time.Millisecond)
	ba.PostRecv(make([]byte, 64))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if msg, err := ba.Recv(); err != nil || string(msg) != "hello" {
		t.Fatalf("recv = %q, %v", msg, err)
	}
}

func TestRecvTimeoutThenDelivery(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	ab := Connect(a, b, 4)
	ba := Connect(b, a, 4)

	if _, err := ba.RecvTimeout(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv on empty inbox = %v, want ErrTimeout", err)
	}
	ba.PostRecv(make([]byte, 64))
	if err := ab.Send(ba, []byte("late")); err != nil {
		t.Fatal(err)
	}
	msg, err := ba.RecvTimeout(time.Second)
	if err != nil || string(msg) != "late" {
		t.Fatalf("recv = %q, %v", msg, err)
	}
}
