package vlog_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"tebis/internal/fsck"
	"tebis/internal/kv"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// formatCase is one record of the boundary table: the lengths of its
// key and value, and the length of the header the format gives it.
type formatCase struct {
	name           string
	keyLen, valLen int
	tomb           bool
	hdr            int
}

// formatCases sits on each edge of the short form: a key of 127 bytes
// and a value of 65 534 take it, a key of 128 or a value of 65 535 does
// not, and a tombstone takes the form its key allows.
var formatCases = []formatCase{
	{"1 B key, empty value", 1, 0, false, 3},
	{"127 B key", 127, 10, false, 3},
	{"128 B key", 128, 10, false, 8},
	{"65 534 B value", 5, 65534, false, 3},
	{"65 535 B value", 5, 65535, false, 8},
	{"127 B key, 65 534 B value", 127, 65534, false, 3},
	{"short tombstone", 127, 0, true, 3},
	{"long tombstone", 128, 0, true, 8},
	{"1 B key tombstone", 1, 0, true, 3},
	{"128 B key, empty value", 128, 0, false, 8},
}

// formatRecord is a record of the boundary test as appended: its case,
// key, value and offset.
type formatRecord struct {
	formatCase
	key, val []byte
	off      storage.Offset
}

func (r formatRecord) body() []byte { return append(append([]byte(nil), r.key...), r.val...) }

// TestRecordFormatBoundaries appends the boundary table — and a record
// that ends exactly at a segment's usable capacity — to a framed log
// and holds every reader to the table: ReadHeader, AppendKey,
// AppendRecord, ranges of AppendValue, ReadHeaders and AppendBodies on
// batches mixing both forms, WalkImage and ScanUsed over each segment
// image, Replay, and fsck's space report of the image. It does so with
// records in the tail and again once all are sealed.
func TestRecordFormatBoundaries(t *testing.T) {
	const segSize = 128 << 10
	path := filepath.Join(t.TempDir(), "format.img")
	fdev, err := storage.NewFileDevice(path, segSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := storage.AsVerifying(fdev)
	l, err := vlog.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	usable := storage.UsableCapacity(dev)

	var recs []formatRecord
	add := func(c formatCase, fill byte) vlog.AppendResult {
		t.Helper()
		r := formatRecord{formatCase: c, key: bytes.Repeat([]byte{fill}, c.keyLen)}
		if !c.tomb {
			r.val = make([]byte, c.valLen)
			for i := range r.val {
				r.val[i] = byte(i*7) + fill
			}
		}
		res, err := l.Append(r.key, r.val, c.tomb)
		if err != nil {
			t.Fatalf("%s: Append: %v", c.name, err)
		}
		if want := vlog.AppendEncoded(nil, r.key, r.val, c.tomb); len(res.Rec) != c.hdr+c.keyLen+c.valLen || !bytes.Equal(res.Rec, want) {
			t.Fatalf("%s: appended %d bytes, want a %d byte header and the same bytes as AppendEncoded", c.name, len(res.Rec), c.hdr)
		}
		r.off = res.Off
		recs = append(recs, r)
		return res
	}
	for i, c := range formatCases {
		add(c, byte('a'+i))
	}
	// A record ending flush with the usable capacity, then one that has
	// to open the next segment.
	res := add(formatCase{name: "to the end of the segment", keyLen: 4, tomb: true, hdr: 3}, 'y')
	room := int(usable - res.TailPos - int64(len(res.Rec)))
	flush := formatCase{name: "flush with the capacity", keyLen: 4, valLen: room - 3 - 4, hdr: 3}
	if res = add(flush, 'z'); res.TailPos+int64(len(res.Rec)) != usable {
		t.Fatalf("the flush record ends at %d, capacity %d", res.TailPos+int64(len(res.Rec)), usable)
	}
	if res = add(formatCases[2], 'A'); res.Sealed == nil || res.TailPos != 0 {
		t.Fatalf("the record after a full segment landed at %d, sealed %v", res.TailPos, res.Sealed)
	}
	add(formatCases[0], 'B')

	checkReaders(t, l, recs)
	if _, err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	checkReaders(t, l, recs)

	if err := fdev.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := fsck.Space(fsck.Options{Path: path, SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	var live, dead int64
	keys := 0
	for _, r := range recs {
		n := int64(r.hdr + r.keyLen + r.valLen)
		if r.tomb {
			dead += n
		} else {
			live += n
			keys++
		}
	}
	last := recs[len(recs)-1]
	tail := last.off + storage.Offset(last.hdr+last.keyLen+last.valLen)
	if rep.Live != live || rep.Dead != dead || rep.Keys != keys || rep.Tail != tail {
		t.Fatalf("fsck space: live %d dead %d keys %d tail %#x, want %d %d %d %#x", rep.Live, rep.Dead, rep.Keys, rep.Tail, live, dead, keys, tail)
	}
}

// checkReaders holds every record reader and image walker of l to recs,
// the records of l in append order.
func checkReaders(t *testing.T, l *vlog.Log, recs []formatRecord) {
	t.Helper()
	held := []byte("held")
	hdrs := make([]vlog.Header, len(recs))
	for i, r := range recs {
		h, err := l.ReadHeader(r.off, nil)
		if err != nil || h.Off() != r.off || h.KeyLen() != r.keyLen || h.ValLen() != r.valLen || h.Tombstone() != r.tomb ||
			h.HeaderLen() != r.hdr || h.RecLen() != r.hdr+r.keyLen+r.valLen {
			t.Fatalf("%s: ReadHeader = %+v (header %d), %v", r.name, h, h.HeaderLen(), err)
		}
		hdrs[i] = h
		if k, hk, err := l.AppendKey(held, r.off); err != nil || hk != h || !bytes.Equal(k, append(held[:4:4], r.key...)) {
			t.Fatalf("%s: AppendKey = %d bytes, %+v, %v", r.name, len(k), hk, err)
		}
		if rec, hr, err := l.AppendRecord(held, r.off); err != nil || hr != h || !bytes.Equal(rec, append(held[:4:4], r.body()...)) {
			t.Fatalf("%s: AppendRecord = %d bytes, %+v, %v", r.name, len(rec), hr, err)
		}
		for _, rg := range [][2]int{{0, r.valLen}, {r.valLen - 1, 5}, {r.valLen / 2, 3}, {1, 1}} {
			lo := min(max(rg[0], 0), r.valLen)
			hi := min(lo+rg[1], r.valLen)
			if v, err := l.AppendValue(held, h, rg[0], rg[1]); err != nil || !bytes.Equal(v, append(held[:4:4], r.val[lo:hi]...)) {
				t.Fatalf("%s: AppendValue(%d, %d) = %d bytes, %v", r.name, rg[0], rg[1], len(v), err)
			}
		}
	}

	// Batches mixing both forms: in order, reversed, and the long
	// headers between short ones.
	var b vlog.Batch
	var all, rev []int
	for i := range recs {
		all = append(all, i)
		rev = append(rev, len(recs)-1-i)
	}
	for _, pick := range [][]int{all, rev, {0, 2, 1, 4, 3, 7, 6}} {
		offs := make([]storage.Offset, len(pick))
		var want []byte
		for i, p := range pick {
			offs[i] = recs[p].off
			want = append(want, recs[p].body()...)
		}
		got, err := l.ReadHeaders(&b, offs)
		if err != nil || len(got) != len(pick) {
			t.Fatalf("%v: ReadHeaders = %d headers, %v", pick, len(got), err)
		}
		for i, p := range pick {
			if got[i] != hdrs[p] {
				t.Fatalf("%v: batch header %d = %+v, ReadHeader %+v", pick, i, got[i], hdrs[p])
			}
		}
		bodies, err := l.AppendBodies(&b, held, got)
		if err != nil || !bytes.Equal(bodies, append(held[:4:4], want...)) {
			t.Fatalf("%v: AppendBodies = %d bytes, %v", pick, len(bodies), err)
		}
	}

	// The walkers, over each segment's image: the records of that
	// segment, in order, and ScanUsed where the last ends.
	geo := l.Geometry()
	segs := append(l.Segments(), l.TailSegment())
	next := 0
	for _, seg := range segs {
		image := make([]byte, geo.SegmentSize())
		if err := l.ReadSegmentImage(seg, image); err != nil {
			t.Fatal(err)
		}
		end := int64(0)
		vlog.WalkImage(image, func(pos int64, key, value []byte, tomb bool, recLen int) bool {
			r := recs[next]
			if geo.Pack(seg, pos) != r.off || !bytes.Equal(key, r.key) || !bytes.Equal(value, r.val) || tomb != r.tomb || recLen != r.hdr+r.keyLen+r.valLen {
				t.Fatalf("segment %d at %d: walked %d+%d bytes (tombstone %v, %d long), want %s", seg, pos, len(key), len(value), tomb, recLen, r.name)
			}
			next++
			end = pos + int64(recLen)
			return true
		})
		if used := vlog.ScanUsed(image); used != end {
			t.Fatalf("segment %d: ScanUsed = %d, the last record ends at %d", seg, used, end)
		}
	}
	if next != len(recs) {
		t.Fatalf("the walks visited %d records of %d", next, len(recs))
	}
	next = 0
	if err := l.Replay(storage.NilOffset, func(off storage.Offset, pair kv.Pair, tomb bool) bool {
		if r := recs[next]; off != r.off || !bytes.Equal(pair.Key, r.key) || !bytes.Equal(pair.Value, r.val) || tomb != r.tomb {
			t.Fatalf("Replay at %#x: %d+%d bytes, tombstone %v, want %s", off, len(pair.Key), len(pair.Value), tomb, r.name)
		}
		next++
		return true
	}); err != nil || next != len(recs) {
		t.Fatalf("Replay visited %d records of %d, %v", next, len(recs), err)
	}
}

// mixedLog returns a log on a plain device holding, sealed, a short
// record, a long one and a short one, and their offsets.
func mixedLog(t *testing.T) (*vlog.Log, *storage.MemDevice, []storage.Offset) {
	t.Helper()
	dev, err := storage.NewMemDevice(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	l, err := vlog.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	var offs []storage.Offset
	for _, keyLen := range []int{10, 200, 20} {
		res, err := l.Append(bytes.Repeat([]byte("k"), keyLen), []byte("value"), false)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, res.Off)
	}
	if _, err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	return l, dev, offs
}

// A header is read by its own bytes: three of a short one, then five
// more of a long one, and a batch reads the rest of its long headers
// only.
func TestHeaderReadsItsOwnBytes(t *testing.T) {
	l, dev, offs := mixedLog(t)
	for i, want := range []struct{ ops, bytes uint64 }{{1, 3}, {2, 8}, {1, 3}} {
		dev.ResetStats()
		if _, err := l.ReadHeader(offs[i], make([]byte, vlog.HeaderSize)); err != nil {
			t.Fatal(err)
		}
		if st := dev.Stats(); st.ReadOps != want.ops || st.BytesRead != want.bytes {
			t.Fatalf("ReadHeader of record %d made %d reads of %d bytes, want %d of %d", i, st.ReadOps, st.BytesRead, want.ops, want.bytes)
		}
	}
	dev.ResetStats()
	var b vlog.Batch
	if _, err := l.ReadHeaders(&b, offs); err != nil {
		t.Fatal(err)
	}
	if st := dev.Stats(); st.ReadOps != 4 || st.BytesRead != 3*3+5 {
		t.Fatalf("ReadHeaders of a short, a long and a short header made %d reads of %d bytes, want 4 of 14", st.ReadOps, st.BytesRead)
	}
	dev.ResetStats()
	if _, err := l.ReadHeaders(&b, []storage.Offset{offs[0], offs[2]}); err != nil {
		t.Fatal(err)
	}
	if st := dev.Stats(); st.ReadOps != 2 || st.BytesRead != 6 {
		t.Fatalf("ReadHeaders of two short headers made %d reads of %d bytes, want 2 of 6", st.ReadOps, st.BytesRead)
	}
}

// A batch of both forms reads its headers and bodies without
// allocating once its Batch and destination have grown.
func TestMixedBatchAllocatesNothing(t *testing.T) {
	l, _, offs := mixedLog(t)
	var b vlog.Batch
	dst := make([]byte, 0, 1024)
	read := func() {
		hdrs, err := l.ReadHeaders(&b, offs)
		if err != nil || len(hdrs) != len(offs) {
			t.Fatalf("ReadHeaders = %d headers, %v", len(hdrs), err)
		}
		if _, err := l.AppendBodies(&b, dst, hdrs); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("a mixed batch allocates %v times", n)
	}
}
