package fsck

import (
	"fmt"
	"path/filepath"
	"testing"

	"tebis/internal/btree"
	"tebis/internal/lsm"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// buildSpaceImage writes an image with a fully known live/dead layout:
// 300 keys written once (40 B values), the first 100 overwritten with
// 80 B values, and keys 200..249 deleted. Every byte of the sealed log
// is accounted for by construction.
func buildSpaceImage(t *testing.T, path string) {
	t.Helper()
	fdev, err := storage.NewFileDevice(path, testSegSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := lsm.New(lsm.Options{
		Device:    storage.AsVerifying(fdev),
		NodeSize:  512,
		L0MaxKeys: 128,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	valA := make([]byte, 40)
	valB := make([]byte, 80)
	for i := range valA {
		valA[i] = 'a'
	}
	for i := range valB {
		valB[i] = 'b'
	}
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), valA); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), valB); err != nil {
			t.Fatal(err)
		}
	}
	for i := 200; i < 250; i++ {
		if err := db.Delete([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	// Seal the partial tail: the report reads sealed frames only (the
	// same durability boundary recovery replays from).
	if _, err := db.Log().Seal(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fdev.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceReportAccounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.img")
	buildSpaceImage(t, path)

	rep, err := Space(Options{Path: path, SegmentSize: testSegSize})
	if err != nil {
		t.Fatal(err)
	}

	// Record sizes: header + 8 B key + value.
	var (
		recA    = vlog.EncodedLen(8, 40) // initial put
		recB    = vlog.EncodedLen(8, 80) // overwrite
		recTomb = vlog.EncodedLen(8, 0)  // tombstone
	)
	wantTotal := int64(300*recA + 100*recB + 50*recTomb)
	wantLive := int64(100*recB + 150*recA) // newest of 0..99, plus untouched 100..199 and 250..299
	wantDead := wantTotal - wantLive

	if rep.Live != wantLive || rep.Dead != wantDead {
		t.Fatalf("space: live %d dead %d, want %d/%d", rep.Live, rep.Dead, wantLive, wantDead)
	}
	if rep.Keys != 250 {
		t.Fatalf("live keys = %d, want 250", rep.Keys)
	}
	if len(rep.Segments) == 0 {
		t.Fatal("no log segments reported")
	}
	if ix := rep.Index; ix.Segments == 0 || ix.Payload%512 != 0 || ix.Slack < 0 {
		t.Fatalf("index space %+v: want the levels' segments, whole nodes and no negative slack", ix)
	}

	var total, live, dead int64
	deadRatioSeen := false
	for i, s := range rep.Segments {
		if s.Total != s.Live+s.Dead || s.Live < 0 || s.Dead < 0 {
			t.Fatalf("segment %d accounting inconsistent: %+v", s.Seg, s)
		}
		if i > 0 && s.Seq <= rep.Segments[i-1].Seq {
			t.Fatalf("segments not in log order: %+v", rep.Segments)
		}
		if s.DeadRatio() > 0 {
			deadRatioSeen = true
		}
		total += s.Total
		live += s.Live
		dead += s.Dead
	}
	if total != wantTotal || live != wantLive || dead != wantDead {
		t.Fatalf("per-segment sums %d/%d/%d do not match totals %d/%d/%d",
			total, live, dead, wantTotal, wantLive, wantDead)
	}
	if !deadRatioSeen {
		t.Fatal("overwrite workload produced no segment with dead bytes")
	}

	// Head is the first byte of the oldest sealed segment; Tail sits
	// past every record, within the newest segment.
	if rep.Head == storage.NilOffset || rep.Tail == storage.NilOffset {
		t.Fatalf("head/tail unset: %#x/%#x", uint64(rep.Head), uint64(rep.Tail))
	}
	if rep.Head >= rep.Tail {
		t.Fatalf("head %#x not before tail %#x", uint64(rep.Head), uint64(rep.Tail))
	}
	geoDev, err := storage.OpenFileDevice(path, testSegSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	geo := geoDev.Geometry()
	geoDev.Close()
	if geo.Segment(rep.Head) != rep.Segments[0].Seg || geo.Within(rep.Head) != 0 {
		t.Fatalf("head %#x not at start of oldest segment %d", uint64(rep.Head), rep.Segments[0].Seg)
	}
	last := rep.Segments[len(rep.Segments)-1]
	if geo.Segment(rep.Tail) != last.Seg {
		t.Fatalf("tail %#x not in newest segment %d", uint64(rep.Tail), last.Seg)
	}

	// Space is strictly read-only: a full fsck pass afterwards is clean.
	res, err := Run(Options{Path: path, SegmentSize: testSegSize})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("image dirty after Space: %v", res.Findings)
	}
}

func TestSpaceEmptyImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.img")
	dev, err := storage.NewFileDevice(path, testSegSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Space(Options{Path: path, SegmentSize: testSegSize})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) != 0 || rep.Keys != 0 || rep.Head != storage.NilOffset || rep.Tail != storage.NilOffset || rep.Index != (IndexSpace{}) {
		t.Fatalf("empty image report = %+v", rep)
	}
}

// TestSpaceIndexSlack: the report counts the image's index segments off
// their trailers — a tree built on a fresh image spans segments holding
// exactly its nodes, so the slack is the capacity its nodes left.
func TestSpaceIndexSlack(t *testing.T) {
	const nodeSize = 512
	path := filepath.Join(t.TempDir(), "index.img")
	fdev, err := storage.NewFileDevice(path, testSegSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := storage.AsVerifying(fdev)
	nodes := 0
	b, err := btree.NewBuilder(dev, nodeSize, func(es btree.EmittedSegment) error {
		nodes += len(es.Data) / nodeSize
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := b.Add([]byte(fmt.Sprintf("key-%06d", i)), storage.Offset(1<<20+i), false); err != nil {
			t.Fatal(err)
		}
	}
	built, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	usable := storage.UsableCapacity(dev)
	if err := fdev.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Space(Options{Path: path, SegmentSize: testSegSize})
	if err != nil {
		t.Fatal(err)
	}
	want := IndexSpace{
		Segments: len(built.Segments),
		Payload:  int64(nodes * nodeSize),
		Slack:    int64(len(built.Segments))*usable - int64(nodes*nodeSize),
	}
	if rep.Index != want || len(rep.Segments) != 0 {
		t.Fatalf("index space %+v and %d log segments, want %+v and none", rep.Index, len(rep.Segments), want)
	}
	// A level wastes at most its last segment's tail.
	if want.Slack >= usable {
		t.Fatalf("%d nodes in %d segments leave %d B slack, a segment's worth or more", nodes, want.Segments, want.Slack)
	}
}
