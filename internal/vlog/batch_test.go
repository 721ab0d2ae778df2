package vlog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tebis/internal/storage"
)

// batchLog fills a log of 512-byte segments with records of varied
// lengths, a tombstone among them, until several segments are sealed
// and the tail holds a few, and returns their offsets in append order.
func batchLog(t *testing.T) (*Log, *storage.MemDevice, []storage.Offset) {
	t.Helper()
	l, dev := newTestLog(t, 512)
	var offs []storage.Offset
	for i := 0; i < 60; i++ {
		key := []byte(fmt.Sprintf("key%04d", i))
		val := bytes.Repeat([]byte{byte('a' + i%26)}, i*7%90)
		res, err := l.Append(key, val, i%11 == 5)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, res.Off)
	}
	if len(l.Segments()) < 4 || l.Geometry().Segment(offs[len(offs)-1]) != l.TailSegment() {
		t.Fatalf("%d sealed segments, last record in segment %d, tail %d", len(l.Segments()), l.Geometry().Segment(offs[len(offs)-1]), l.TailSegment())
	}
	return l, dev, offs
}

// TestBatchReadsWhatTheRecordReadersRead: over records in sealed
// segments and in the tail, in and out of order, ReadHeaders returns
// the headers ReadHeader returns and AppendBodies appends what
// AppendRecord appends behind each header, after what dst holds. The
// device sees one read per sealed header and one per sealed body, of
// exactly their bytes.
func TestBatchReadsWhatTheRecordReadersRead(t *testing.T) {
	l, dev, all := batchLog(t)
	var b Batch
	for _, pick := range [][]int{
		{0, 1, 2, 3},
		{59, 3, 58, 40, 12, 57, 5, 16, 33, 1, 0, 56, 21, 22, 23, 24}, // the tail's among the sealed
		{58, 59},
		{7},
		{},
	} {
		offs := make([]storage.Offset, len(pick))
		var want []byte
		var wantHdrs []Header
		sealedBytes, sealedReads := 0, 0
		for i, p := range pick {
			offs[i] = all[p]
			rec, h, err := l.AppendRecord(nil, offs[i])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, rec...)
			wantHdrs = append(wantHdrs, h)
			if l.Geometry().Segment(offs[i]) != l.TailSegment() {
				sealedReads += 2
				sealedBytes += h.RecLen()
			}
		}
		dev.ResetStats()
		hdrs, err := l.ReadHeaders(&b, offs)
		if err != nil || len(hdrs) != len(wantHdrs) {
			t.Fatalf("%v: ReadHeaders = %d headers, %v", pick, len(hdrs), err)
		}
		for i := range hdrs {
			if hdrs[i] != wantHdrs[i] {
				t.Fatalf("%v: header %d = %+v, ReadHeader %+v", pick, i, hdrs[i], wantHdrs[i])
			}
		}
		got, err := l.AppendBodies(&b, []byte("held"), hdrs)
		if err != nil || string(got[:4]) != "held" || !bytes.Equal(got[4:], want) {
			t.Fatalf("%v: AppendBodies = %q, %v, want held+%q", pick, got, err, want)
		}
		if st := dev.Stats(); st.ReadOps != uint64(sealedReads) || st.BytesRead != uint64(sealedBytes) {
			t.Fatalf("%v: %d device reads of %d bytes, want %d of %d", pick, st.ReadOps, st.BytesRead, sealedReads, sealedBytes)
		}
	}
}

// TestBatchStopsAtTheFirstBadRecord: a batch whose third record is
// refused — its segment released, an offset into padding or past the
// tail's end — returns the first two headers and that record's error,
// typed as ReadHeader types it; AppendBodies over a header whose
// segment went away appends the bodies before it.
func TestBatchStopsAtTheFirstBadRecord(t *testing.T) {
	l, _, all := batchLog(t)
	geo := l.Geometry()
	victim := l.Segments()[1]
	var inVictim storage.Offset
	for _, off := range all {
		if geo.Segment(off) == victim {
			inVictim = off
			break
		}
	}
	var b Batch
	goodHdrs, err := l.ReadHeaders(&b, []storage.Offset{all[0], all[59], inVictim})
	if err != nil {
		t.Fatal(err)
	}
	goodHdrs = append([]Header(nil), goodHdrs...)
	if _, err := l.Release([]storage.SegmentID{victim}); err != nil {
		t.Fatal(err)
	}
	used := l.Geometry().Within(l.Position())
	for _, tc := range []struct {
		name string
		off  storage.Offset
		want error
	}{
		{"released", inVictim, ErrReclaimed},
		{"padding", geo.Pack(l.Segments()[0], 500), ErrBadOffset},
		{"past the tail", geo.Pack(l.TailSegment(), used), ErrBadOffset},
	} {
		_, wantErr := l.ReadHeader(tc.off, nil)
		hdrs, err := l.ReadHeaders(&b, []storage.Offset{all[0], all[59], tc.off, all[1]})
		if !errors.Is(err, tc.want) || fmt.Sprint(err) != fmt.Sprint(wantErr) || len(hdrs) != 2 || hdrs[0] != goodHdrs[0] || hdrs[1] != goodHdrs[1] {
			t.Fatalf("%s: ReadHeaders = %d headers, %v; ReadHeader's error %v", tc.name, len(hdrs), err, wantErr)
		}
	}
	got, err := l.AppendBodies(&b, nil, goodHdrs)
	first, _, _ := l.AppendRecord(nil, all[0])
	tail, _, _ := l.AppendRecord(nil, all[59])
	if !errors.Is(err, ErrReclaimed) || !bytes.Equal(got, append(first, tail...)) {
		t.Fatalf("AppendBodies over a released record = %q, %v", got, err)
	}
}

// TestBatchAllocatesNothing: a Batch reused from batch to batch reads
// without allocating.
func TestBatchAllocatesNothing(t *testing.T) {
	l, _, all := batchLog(t)
	var b Batch
	offs := all[20:36]
	dst := make([]byte, 0, 4096)
	read := func() {
		hdrs, err := l.ReadHeaders(&b, offs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendBodies(&b, dst[:0], hdrs); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("a batch read allocated %.1f times", n)
	}
}
