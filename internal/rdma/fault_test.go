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

// TestFaultMatchesNthWrite: a hook's sequence number counts the writes
// touching its endpoint, so it can drop exactly the second.
func TestFaultMatchesNthWrite(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	mr, _ := b.Register(64)
	ab := Connect(a, b, 4)

	b.InjectFault(func(op FaultOp, from, to string, seq int, payload []byte) Fault {
		if op == FaultWrite && seq == 1 {
			return Fault{Action: FaultDrop}
		}
		return Fault{}
	})
	got := make([]byte, 5)
	for i, want := range []string{"first", "secnd", "third"} {
		if err := ab.WriteUnsignaled(mr.RKey(), 0, []byte(want)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := mr.ReadAt(0, got); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			want = "first" // the dropped write left the region as it was
		}
		if string(got) != want {
			t.Fatalf("after write %d the region holds %q, want %q", i, got, want)
		}
	}
	if a.TxBytes() != 10 || b.RxBytes() != 10 {
		t.Fatalf("tx=%d rx=%d, want the two writes that landed", a.TxBytes(), b.RxBytes())
	}
}
