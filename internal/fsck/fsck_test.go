package fsck

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tebis/internal/integrity"
	"tebis/internal/lsm"
	"tebis/internal/storage"
)

const testSegSize = 16 << 10

// buildImage writes a small database image at path and returns the
// number of framed segments it left behind.
func buildImage(t *testing.T, path string) int {
	t.Helper()
	fdev, err := storage.NewFileDevice(path, testSegSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	ver := storage.AsVerifying(fdev)
	db, err := lsm.New(lsm.Options{
		Device:    ver,
		NodeSize:  512,
		L0MaxKeys: 128,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%05d", i)
		if err := db.Put([]byte(key), []byte("value-"+key)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	framed := 0
	for _, seg := range fdev.Segments() {
		if _, err := ver.SegmentInfo(seg); err == nil {
			framed++
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fdev.Close(); err != nil {
		t.Fatal(err)
	}
	if framed == 0 {
		t.Fatal("image has no framed segments")
	}
	return framed
}

func TestRunCleanImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.img")
	framed := buildImage(t, path)

	res, err := Run(Options{Path: path, SegmentSize: testSegSize})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || res.Scanned != framed {
		t.Fatalf("read-only pass: scanned %d (want %d), findings %v", res.Scanned, framed, res.Findings)
	}
	if res.Recovery != nil {
		t.Fatal("read-only pass reported a recovery")
	}
}

func TestRunDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dirty.img")
	buildImage(t, path)

	// Flip one payload bit in segment 1 on the raw image.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(1)*testSegSize + 100 // segment IDs start at 1
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Run(Options{Path: path, SegmentSize: testSegSize})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 || res.Findings[0].Seg != 1 {
		t.Fatalf("findings = %v, want exactly segment 1", res.Findings)
	}
	if !errors.Is(res.Findings[0].Err, storage.ErrChecksum) {
		t.Fatalf("finding error = %v, want ErrChecksum", res.Findings[0].Err)
	}

	// The read-only pass must not have repaired or reclaimed anything:
	// a second pass sees the same corruption.
	res2, err := Run(Options{Path: path, SegmentSize: testSegSize})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Findings) != 1 {
		t.Fatalf("second pass findings = %v", res2.Findings)
	}
}

func TestRunRecoverTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.img")
	buildImage(t, path)

	// Tear the newest log segment inside its trailer: zero the CRC so
	// the seal never committed. Recovery must truncate it, not fail.
	dev, err := storage.OpenFileDevice(path, testSegSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	ver := storage.AsVerifying(dev)
	var newest storage.SegmentID
	var newestSeq uint32
	for _, seg := range ver.Segments() {
		tr, err := ver.SegmentInfo(seg)
		if err != nil || tr.Kind != integrity.KindLog {
			continue
		}
		if tr.Seq >= newestSeq {
			newest, newestSeq = seg, tr.Seq
		}
	}
	if newest == 0 {
		t.Fatal("no log segments on image")
	}
	zero := make([]byte, 4)
	tearOff := dev.Geometry().Pack(newest, testSegSize-4)
	if err := dev.WriteAt(tearOff, zero); err != nil { // bypass the verifier
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Run(Options{Path: path, SegmentSize: testSegSize, Recover: true})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if res.Recovery == nil {
		t.Fatal("recover pass reported no recovery info")
	}
	if got := len(res.Recovery.Log.TornSegments); got != 1 {
		t.Fatalf("torn segments truncated = %d, want 1 (%+v)", got, res.Recovery.Log)
	}
	if !res.Clean() {
		t.Fatalf("post-recovery scrub not clean: %v", res.Findings)
	}
}
