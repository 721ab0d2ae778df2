package vlog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tebis/internal/storage"
)

// lockTestRecord is record i of the lock tests: a key and value that
// name i, so a read returns the right bytes or visibly wrong ones. Every
// fourth key is too long for a short header.
func lockTestRecord(i int) (key, val []byte) {
	key = []byte(fmt.Sprintf("key-%06d", i))
	if i%4 == 0 {
		key = append(key, bytes.Repeat([]byte{'k'}, 120)...)
	}
	return key, []byte(fmt.Sprintf("value-%06d-%s", i, bytes.Repeat([]byte{'v'}, i%7)))
}

func newVerifiedLog(tb testing.TB, segSize int64) *Log {
	tb.Helper()
	mem, err := storage.NewMemDevice(segSize, 0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { mem.Close() })
	l, err := New(storage.AsVerifying(mem))
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// appendLockTestRecords appends records from, from+1, … until n more
// seals have happened, and returns their offsets.
func appendLockTestRecords(tb testing.TB, l *Log, from, seals int) []storage.Offset {
	tb.Helper()
	var offs []storage.Offset
	for i := from; seals > 0; i++ {
		key, val := lockTestRecord(i)
		res, err := l.Append(key, val, false)
		if err != nil {
			tb.Fatal(err)
		}
		if res.Sealed != nil {
			seals--
		}
		offs = append(offs, res.Off)
	}
	return offs
}

// checkBatch reads records i and i+1, at offs, as one batch.
func checkBatch(l *Log, b *Batch, offs []storage.Offset, i int) error {
	hdrs, err := l.ReadHeaders(b, offs)
	if err != nil {
		return err
	}
	got, err := l.AppendBodies(b, nil, hdrs)
	if err != nil {
		return err
	}
	for j, h := range hdrs {
		key, val := lockTestRecord(i + j)
		if !bytes.Equal(got[:h.KeyLen()], key) || !bytes.Equal(got[h.KeyLen():h.KeyLen()+h.ValLen()], val) {
			return fmt.Errorf("record %d at %#x reads %q in a batch", i+j, offs[j], got)
		}
		got = got[h.KeyLen()+h.ValLen():]
	}
	return nil
}

func checkRecord(l *Log, off storage.Offset, i int) error {
	key, val := lockTestRecord(i)
	got, h, err := l.AppendRecord(nil, off)
	if err != nil {
		return err
	}
	if !bytes.Equal(got[:h.KeyLen()], key) || !bytes.Equal(got[h.KeyLen():], val) {
		return fmt.Errorf("record %d at %#x reads %q", i, off, got)
	}
	return nil
}

// TestSealedRecordReadTakesNoLock: with the log's mutex held — as
// Append holds it — a record in a sealed segment still reads; one in the
// unsealed tail waits for the mutex, because the tail buffer is the
// appender's, and reads once it is let go.
func TestSealedRecordReadTakesNoLock(t *testing.T) {
	l := newVerifiedLog(t, 4096)
	offs := appendLockTestRecords(t, l, 0, 1)
	sealed, tail := 0, len(offs)-1 // the last append sealed the tail and started a new one
	if l.geo.Segment(offs[sealed]) == l.TailSegment() || l.geo.Segment(offs[tail]) != l.TailSegment() {
		t.Fatal("records not placed as the test expects")
	}

	l.mu.Lock()
	ok, err := returnsWithin(2*time.Second, func() error { return checkRecord(l, offs[sealed], sealed) })
	if !ok {
		l.mu.Unlock()
		t.Fatal("a read of a sealed segment waited on the log's mutex")
	}
	if err != nil {
		t.Error(err)
	}

	done := make(chan error, 1)
	go func() { done <- checkRecord(l, offs[tail], tail) }()
	select {
	case err := <-done:
		t.Errorf("a tail read returned (%v) while the log's mutex was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	l.mu.Unlock()
	if err := <-done; err != nil {
		t.Error(err)
	}
}

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

// TestReadsRaceSealAndRelease: readers of the log run beside an appender
// that seals segments and releases old ones. Records in segments never
// released read with no lock of the test's; recent records are read
// under a read lock that Release's caller takes exclusively, as gets and
// scans hold the engine's lock and GC releases only what no index entry
// points into. Every read returns the right bytes — alone, and in a
// batch whose long headers take a second read — and a read past the
// table's end ErrReclaimed. Run it under -race.
func TestReadsRaceSealAndRelease(t *testing.T) {
	l := newVerifiedLog(t, 4096)
	pinned := appendLockTestRecords(t, l, 0, 2)
	pinned = pinned[:len(pinned)-1] // the last landed in the new tail
	keep := len(l.Segments())

	var (
		mu   sync.Mutex // guards offs
		offs = append([]storage.Offset(nil), pinned...)
		gc   sync.RWMutex
	)
	appends := 6000
	if testing.Short() {
		appends = 1500
	}
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			var b Batch
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rnd.Intn(len(pinned))
				if err := checkRecord(l, pinned[i], i); err != nil {
					errs <- err
					return
				}
				gc.RLock()
				mu.Lock()
				i = len(offs) - 1 - rnd.Intn(50)
				off, pair := offs[i], [2]storage.Offset{offs[i-1], offs[i]}
				mu.Unlock()
				err := checkRecord(l, off, i)
				if err == nil {
					err = checkBatch(l, &b, pair[:], i-1)
				}
				gc.RUnlock()
				if err != nil {
					errs <- err
					return
				}
				past := l.geo.Pack(storage.SegmentID(1<<30+r), 0)
				if _, _, err := l.AppendRecord(nil, past); !errors.Is(err, ErrReclaimed) {
					errs <- fmt.Errorf("read past the table's end = %v", err)
					return
				}
			}
		}(r)
	}

	for i := len(pinned); i < len(pinned)+appends; i++ {
		key, val := lockTestRecord(i)
		res, err := l.Append(key, val, false)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		offs = append(offs, res.Off)
		mu.Unlock()
		if segs := l.Segments(); res.Sealed != nil && len(segs) > keep+3 {
			gc.Lock()
			_, err := l.Release(segs[keep : keep+1])
			gc.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if rep := l.SpaceReport(); rep.Trimmed == 0 {
		t.Fatal("no segment was released")
	}
}

// BenchmarkAppendRecordSealed is one record read from a sealed segment of
// a log on a verifying in-memory device — the read a get or a scan makes
// per returned record.
func BenchmarkAppendRecordSealed(b *testing.B) {
	l := newVerifiedLog(b, 1<<16)
	offs := appendLockTestRecords(b, l, 0, 1)
	offs = offs[:len(offs)-1]
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, _, err = l.AppendRecord(buf[:0], offs[i%len(offs)]); err != nil {
			b.Fatal(err)
		}
	}
}
