package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// writeKinds are the two one-sided writes: signaled, which queues a
// completion once the bytes are in remote memory, and unsignaled.
var writeKinds = []struct {
	name     string
	signaled bool
	write    func(qp *QP, rkey uint32, off int, data []byte) error
}{
	{"Write", true, func(qp *QP, rkey uint32, off int, data []byte) error { return qp.Write(rkey, off, data, 9) }},
	{"WriteUnsignaled", false, func(qp *QP, rkey uint32, off int, data []byte) error {
		return qp.WriteUnsignaled(rkey, off, data)
	}},
}

// TestWriteUnsignaledIsWriteWithoutTheCompletion: on every path — a write
// that lands, one a fault drops, fails or delays, a bad rkey, a range
// past the region, a closed queue pair — WriteUnsignaled returns what
// Write returns, lands the same bytes, moves the region's write
// generation so a Poller sees them, and counts the same tx and rx bytes.
// Only Write of a write that landed queues a completion.
func TestWriteUnsignaledIsWriteWithoutTheCompletion(t *testing.T) {
	msg := bytes.Repeat([]byte{7}, 16)
	binary.LittleEndian.PutUint32(msg[12:], testWord)
	for _, tc := range []struct {
		name    string
		fault   Fault
		badRKey bool
		off     int
		closed  bool
		wantErr error // nil: the write succeeds
		lands   bool
		takes   time.Duration
	}{
		{name: "lands", lands: true},
		{name: "FaultDrop", fault: Fault{Action: FaultDrop}},
		{name: "FaultError", fault: Fault{Action: FaultError}, wantErr: ErrInjected},
		{name: "FaultDelay", fault: Fault{Action: FaultDelay, Delay: 5 * time.Millisecond}, lands: true, takes: 5 * time.Millisecond},
		{name: "ErrBadRKey", badRKey: true, wantErr: ErrBadRKey},
		{name: "ErrBounds", off: 56, wantErr: ErrBounds},
		{name: "ErrDisconnected", closed: true, wantErr: ErrDisconnected},
	} {
		for _, k := range writeKinds {
			a, b := NewEndpoint("a"), NewEndpoint("b")
			mr, _ := b.Register(64)
			qp := Connect(a, b, 4)
			if tc.fault.Action != FaultNone {
				b.InjectFault(func(FaultOp, string, string, int, []byte) Fault { return tc.fault })
			}
			if tc.closed {
				qp.Close()
			}
			rkey := mr.RKey()
			if tc.badRKey {
				rkey++
			}
			poll := mr.Poller()
			start := time.Now()
			err := k.write(qp, rkey, tc.off, msg)
			took := time.Since(start)
			if !errors.Is(err, tc.wantErr) { // a nil wantErr wants a nil err
				t.Errorf("%s, %s: err = %v, want %v", tc.name, k.name, err, tc.wantErr)
			}
			if took < tc.takes {
				t.Errorf("%s, %s: returned after %v, want at least %v", tc.name, k.name, took, tc.takes)
			}
			got := make([]byte, len(msg))
			found, perr := poll.ReadIfWord(0, got, testWord)
			if perr != nil || found != tc.lands || (found && !bytes.Equal(got, msg)) {
				t.Errorf("%s, %s: the poll found %v (%v), %x; want %v", tc.name, k.name, found, perr, got, tc.lands)
			}
			wantBytes := uint64(0)
			if tc.lands {
				wantBytes = uint64(len(msg))
			}
			if a.TxBytes() != wantBytes || b.RxBytes() != wantBytes {
				t.Errorf("%s, %s: tx %d rx %d, want %d each", tc.name, k.name, a.TxBytes(), b.RxBytes(), wantBytes)
			}
			c, cerr := qp.WaitCompletionTimeout(time.Millisecond)
			switch {
			case k.signaled && tc.lands:
				if cerr != nil || c.WRID != 9 || c.Bytes != len(msg) {
					t.Errorf("%s, %s: completion %+v, %v", tc.name, k.name, c, cerr)
				}
			case tc.closed:
				if !errors.Is(cerr, ErrDisconnected) {
					t.Errorf("%s, %s: wait on a closed queue pair = %+v, %v", tc.name, k.name, c, cerr)
				}
			case !errors.Is(cerr, ErrTimeout):
				t.Errorf("%s, %s: a completion was queued: %+v, %v", tc.name, k.name, c, cerr)
			}
		}
	}
}

// TestWriteUnsignaledAllocatesNothing: the request path's write, like
// the wait-free poll, costs the heap nothing.
func TestWriteUnsignaledAllocatesNothing(t *testing.T) {
	a, b := NewEndpoint("a"), NewEndpoint("b")
	mr, _ := b.Register(64)
	qp := Connect(a, b, 1)
	data := make([]byte, 32)
	if got := testing.AllocsPerRun(100, func() {
		if err := qp.WriteUnsignaled(mr.RKey(), 0, data); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("WriteUnsignaled allocates %v times", got)
	}
}
