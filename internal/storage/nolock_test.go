package storage

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tebis/internal/integrity"
)

// returnsWithin runs fn on another goroutine and reports whether it
// returned within d, and with what.
func returnsWithin(d time.Duration, fn func() error) (bool, error) {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return true, err
	case <-time.After(d):
		return false, nil
	}
}

// TestSealedReadTakesNoLock: with the device's and the verifier's
// mutexes held, a read of a verified segment still returns its bytes.
// Those mutexes serialize Alloc, Free and state changes, never a read.
func TestSealedReadTakesNoLock(t *testing.T) {
	mem, dev := newVerifying(t)
	seg, err := dev.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("sealed"), 40)
	off := dev.Geometry().Pack(seg, 0)
	if err := dev.WriteFramedAt(off, want, integrity.KindLog); err != nil {
		t.Fatal(err)
	}
	mem.mu.Lock()
	dev.mu.Lock()
	defer mem.mu.Unlock()
	defer dev.mu.Unlock()
	got := make([]byte, len(want))
	ok, err := returnsWithin(2*time.Second, func() error { return dev.ReadAt(off, got) })
	if !ok {
		t.Fatal("a read of a sealed segment waited on a device mutex")
	}
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read = %q, %v", got, err)
	}
}

// BenchmarkSealedRead is a read of a verified segment through a
// verifying in-memory device: a record header (8 B) and a record
// (256 B), the two reads a scan makes per returned pair.
func BenchmarkSealedRead(b *testing.B) {
	mem, err := NewMemDevice(1<<16, 0)
	if err != nil {
		b.Fatal(err)
	}
	dev := AsVerifying(mem)
	seg, err := dev.Alloc()
	if err != nil {
		b.Fatal(err)
	}
	off := dev.Geometry().Pack(seg, 0)
	if err := dev.WriteFramedAt(off, make([]byte, 4096), integrity.KindLog); err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{8, 256} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			p := make([]byte, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := dev.ReadAt(off+Offset(i%16*n), p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
