package storage

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"tebis/internal/integrity"
)

const testSegSize = 4096

func newVerifying(t *testing.T) (*MemDevice, *VerifyingDevice) {
	t.Helper()
	mem, err := NewMemDevice(testSegSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	return mem, AsVerifying(mem)
}

func TestVerifyingPartialWriteRoundTrip(t *testing.T) {
	_, dev := newVerifying(t)
	seg, err := dev.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 1000)
	if err := dev.WriteFramedAt(dev.Geometry().Pack(seg, 0), payload, integrity.KindLog); err != nil {
		t.Fatalf("WriteFramedAt: %v", err)
	}
	got := make([]byte, len(payload))
	if err := dev.ReadAt(dev.Geometry().Pack(seg, 0), got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after framed write")
	}
	if err := dev.VerifySegment(seg); err != nil {
		t.Fatalf("VerifySegment: %v", err)
	}
	info, err := dev.SegmentInfo(seg)
	if err != nil {
		t.Fatalf("SegmentInfo: %v", err)
	}
	if info.Kind != integrity.KindLog || info.PayloadLen != 1000 {
		t.Fatalf("trailer = %+v", info)
	}
}

func TestVerifyingFullImageWrite(t *testing.T) {
	mem, dev := newVerifying(t)
	seg, err := dev.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0x5A}, testSegSize)
	if err := dev.WriteFramedAt(dev.Geometry().Pack(seg, 0), img, integrity.KindIndex); err != nil {
		t.Fatalf("full-image write: %v", err)
	}
	// The payload region round-trips; the trailer region is replaced by
	// the device's own frame.
	cap := integrity.Capacity(testSegSize)
	got := make([]byte, testSegSize)
	if err := dev.ReadAt(dev.Geometry().Pack(seg, 0), got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got[:cap], img[:cap]) {
		t.Fatal("payload region mismatch")
	}
	tr := make([]byte, integrity.TrailerSize)
	if err := mem.ReadAt(dev.Geometry().Pack(seg, cap), tr); err != nil {
		t.Fatal(err)
	}
	info, err := integrity.DecodeTrailer(tr, testSegSize)
	if err != nil {
		t.Fatalf("stored trailer: %v", err)
	}
	if info.Kind != integrity.KindIndex || int64(info.PayloadLen) != cap {
		t.Fatalf("trailer = %+v", info)
	}
}

// TestVerifyingFullImageSealsInPlace: a full-size image goes to the
// device as it is — one inner write of segment size, the trailer stamped
// into the image's own last bytes (FramedWriter), no second image —
// and reads back, trailer included, as the caller's buffer now stands.
// A plain WriteAt, whose p a Device only reads, leaves its caller's
// bytes alone.
func TestVerifyingFullImageSealsInPlace(t *testing.T) {
	mem, dev := newVerifying(t)
	seg, err := dev.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	off := dev.Geometry().Pack(seg, 0)
	cap := integrity.Capacity(testSegSize)
	img := bytes.Repeat([]byte{0x5A}, testSegSize)
	clear(img[cap:]) // the owner keeps nothing there

	before := mem.Stats()
	if err := dev.WriteFramedAt(off, img, integrity.KindLog); err != nil {
		t.Fatal(err)
	}
	after := mem.Stats()
	if after.WriteOps-before.WriteOps != 1 || after.BytesWritten-before.BytesWritten != testSegSize {
		t.Fatalf("a full image took %d inner writes of %d bytes in all, want one of %d",
			after.WriteOps-before.WriteOps, after.BytesWritten-before.BytesWritten, testSegSize)
	}
	info, err := integrity.DecodeTrailer(img[cap:], testSegSize)
	if err != nil || info.Kind != integrity.KindLog || int64(info.PayloadLen) != cap {
		t.Fatalf("the image's last bytes hold %+v, %v; want the frame's trailer", info, err)
	}
	stored := make([]byte, testSegSize)
	if err := mem.ReadAt(off, stored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, img) {
		t.Fatal("the device does not hold the caller's image byte for byte")
	}
	if err := dev.VerifySegment(seg); err != nil {
		t.Fatalf("VerifySegment: %v", err)
	}
	// No second image: twenty more writes allocate less than one segment
	// between them (the checksum's 16-byte trailer head each). TotalAlloc
	// counts the whole process, so take the fewest bytes of a few rounds:
	// another goroutine's allocation cannot land in all of them.
	got := ^uint64(0)
	for round := 0; round < 5; round++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 20; i++ {
			if err := dev.WriteFramedAt(off, img, integrity.KindLog); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		got = min(got, m1.TotalAlloc-m0.TotalAlloc)
	}
	if got >= testSegSize {
		t.Fatalf("20 full-image framed writes allocated %d bytes; an image is %d", got, testSegSize)
	}

	plain := bytes.Repeat([]byte{0x33}, testSegSize)
	if err := dev.WriteAt(off, plain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, bytes.Repeat([]byte{0x33}, testSegSize)) {
		t.Fatal("WriteAt wrote into its caller's buffer")
	}
	if err := dev.VerifySegment(seg); err != nil {
		t.Fatalf("VerifySegment after WriteAt: %v", err)
	}
}

func TestVerifyingOversizedAndMisalignedWrites(t *testing.T) {
	_, dev := newVerifying(t)
	seg, _ := dev.Alloc()
	geo := dev.Geometry()
	tooBig := make([]byte, integrity.Capacity(testSegSize)+1)
	if err := dev.WriteAt(geo.Pack(seg, 0), tooBig); !errors.Is(err, ErrSegmentOverflow) {
		t.Fatalf("oversized payload: got %v", err)
	}
	if err := dev.WriteAt(geo.Pack(seg, 8), []byte{1}); !errors.Is(err, ErrSegmentOverflow) {
		t.Fatalf("misaligned write: got %v", err)
	}
}

func TestVerifyingDetectsCorruption(t *testing.T) {
	mem, dev := newVerifying(t)
	seg, _ := dev.Alloc()
	payload := bytes.Repeat([]byte{7}, 512)
	if err := dev.WriteFramedAt(dev.Geometry().Pack(seg, 0), payload, integrity.KindLog); err != nil {
		t.Fatal(err)
	}
	// Flip one stored bit beneath the verifier, then drop the verified
	// cache as a cold read would.
	corrupt := func() {
		t.Helper()
		b := []byte{0}
		off := dev.Geometry().Pack(seg, 100)
		if err := mem.ReadAt(off, b); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if err := mem.WriteAt(off, b); err != nil {
			t.Fatal(err)
		}
		dev.Invalidate(seg)
	}
	corrupt()
	if n := dev.Corruptions(); n != 0 {
		t.Fatalf("Corruptions before any read = %d", n)
	}

	got := make([]byte, 512)
	if err := dev.ReadAt(dev.Geometry().Pack(seg, 0), got); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of corrupt segment: got %v want ErrChecksum", err)
	}
	// The failure is sticky, and counted once.
	if err := dev.ReadAt(dev.Geometry().Pack(seg, 0), got); !errors.Is(err, ErrChecksum) {
		t.Fatalf("second read: got %v want sticky ErrChecksum", err)
	}
	if err := dev.VerifySegment(seg); !errors.Is(err, ErrChecksum) {
		t.Fatalf("VerifySegment: got %v want ErrChecksum", err)
	}
	if n := dev.Corruptions(); n != 1 {
		t.Fatalf("Corruptions after three failed checks of one segment = %d, want 1", n)
	}
	// Rewriting the segment clears the failure; the count stays.
	if err := dev.WriteFramedAt(dev.Geometry().Pack(seg, 0), payload, integrity.KindLog); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if err := dev.ReadAt(dev.Geometry().Pack(seg, 0), got); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after rewrite")
	}
	if n := dev.Corruptions(); n != 1 {
		t.Fatalf("Corruptions after rewrite = %d, want 1", n)
	}
	// The rewritten incarnation going bad is one more.
	corrupt()
	if err := dev.VerifySegment(seg); !errors.Is(err, ErrChecksum) {
		t.Fatalf("VerifySegment of the rewrite: got %v want ErrChecksum", err)
	}
	if n := dev.Corruptions(); n != 2 {
		t.Fatalf("Corruptions after the rewrite went bad = %d, want 2", n)
	}
}

func TestVerifyingUnframedPassThrough(t *testing.T) {
	mem, dev := newVerifying(t)
	seg, _ := dev.Alloc()
	// Written beneath the verifier: no frame.
	if err := mem.WriteAt(dev.Geometry().Pack(seg, 0), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := dev.ReadAt(dev.Geometry().Pack(seg, 0), got); err != nil {
		t.Fatalf("unframed read: %v", err)
	}
	if err := dev.VerifySegment(seg); !errors.Is(err, integrity.ErrNoFrame) {
		t.Fatalf("VerifySegment of unframed segment: got %v want ErrNoFrame", err)
	}
}

// TestVerifyingSeqResumes pins the reopen behavior: the frame sequence
// counter continues after the largest stored seq so recovery ordering
// stays monotonic across restarts.
func TestVerifyingSeqResumes(t *testing.T) {
	mem, dev := newVerifying(t)
	geo := dev.Geometry()
	for i := 0; i < 3; i++ {
		seg, _ := dev.Alloc()
		if err := dev.WriteFramedAt(geo.Pack(seg, 0), []byte{byte(i)}, integrity.KindLog); err != nil {
			t.Fatal(err)
		}
	}
	reopened := AsVerifying(NewFaultDevice(mem)) // distinct wrapper, same medium
	seg, _ := reopened.Alloc()
	if err := reopened.WriteFramedAt(geo.Pack(seg, 0), []byte{9}, integrity.KindLog); err != nil {
		t.Fatal(err)
	}
	info, err := reopened.SegmentInfo(seg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 4 {
		t.Fatalf("seq after reopen = %d, want 4", info.Seq)
	}
}

func TestVerifyingFreeClearsFrame(t *testing.T) {
	mem, dev := newVerifying(t)
	seg, _ := dev.Alloc()
	if err := dev.WriteFramedAt(dev.Geometry().Pack(seg, 0), []byte{1}, integrity.KindLog); err != nil {
		t.Fatal(err)
	}
	if err := dev.Free(seg); err != nil {
		t.Fatalf("Free: %v", err)
	}
	// MemDevice drops freed contents entirely; what matters is the typed
	// errors on reuse-after-free and double-free through the verifier.
	if err := dev.ReadAt(dev.Geometry().Pack(seg, 0), []byte{0}); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("read of freed segment: got %v want ErrBadSegment", err)
	}
	if err := dev.Free(seg); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free: got %v want ErrDoubleFree", err)
	}
	_ = mem
}

func TestAsVerifyingIdempotent(t *testing.T) {
	_, dev := newVerifying(t)
	if AsVerifying(dev) != dev {
		t.Fatal("AsVerifying re-wrapped a verifying device")
	}
}
