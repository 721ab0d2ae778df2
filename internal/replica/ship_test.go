package replica

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/shipcodec"
	"tebis/internal/storage"
)

// bulkReads counts the bytes a device serves in reads larger than a
// B+-tree node. A merge reads its levels a node at a time, and keys and
// records are smaller still, so on a primary these would be segments
// read back whole.
type bulkReads struct {
	storage.Device
	bytes atomic.Int64
}

func (d *bulkReads) ReadAt(off storage.Offset, p []byte) error {
	if len(p) > lsmOpts().NodeSize {
		d.bytes.Add(int64(len(p)))
	}
	return d.Device.ReadAt(off, p)
}

// TestShipPathReadsNothingAndReconverges: every compaction ship frames
// the segment its build emitted and reads nothing back. Batches that
// each sort before every existing key rebuild every page of a level
// (descending); keys appended past the keyspace then leave each level's
// early pages as they were, the case a page delta was built for — and
// still the primary reads not one segment back (appended). The codec
// shrinks what crosses the wire, and the backup, promoted, answers every
// key with its value (promoted). The phases run in order on one rig.
func TestShipPathReadsNothingAndReconverges(t *testing.T) {
	ship := &metrics.ShipStats{}
	var bulk *bulkReads
	r := newRigCfg(t, SendIndex, 1,
		func(o *lsm.Options) {
			bulk = &bulkReads{Device: o.Device}
			o.Device = storage.AsVerifying(bulk)
		},
		func(pc *PrimaryConfig) {
			pc.ShipCodec = shipcodec.Flate
			pc.ShipPageSize = lsmOpts().NodeSize
			pc.Ship = ship
		},
		func(c *BackupConfig) { c.Device = storage.AsVerifying(c.Device) })
	drain := func(t *testing.T) {
		t.Helper()
		if err := r.db.Flush(); err != nil {
			t.Fatal(err)
		}
		r.checkHealthy()
		snap := ship.Snapshot()
		t.Logf("%d segments shipped, raw=%d wire=%d, %d bytes read in bulk", snap.FullSegments, snap.RawBytes, snap.WireBytes, bulk.bytes.Load())
		if got := bulk.bytes.Load(); got != 0 {
			t.Fatalf("the primary read %d bytes in reads larger than a node", got)
		}
	}
	phase := func(name string, fn func(t *testing.T)) {
		if !t.Run(name, fn) {
			t.FailNow()
		}
	}

	const n, extra = 2500, 1200
	val := bytes.Repeat([]byte("v"), 40)
	phase("descending", func(t *testing.T) {
		for i := n; i > 0; i-- {
			if err := r.db.Put([]byte(fmt.Sprintf("user%08d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
		drain(t)
		if snap := ship.Snapshot(); snap.FullSegments < 10 {
			t.Fatalf("shipped %d segments: want many", snap.FullSegments)
		}
	})
	phase("appended", func(t *testing.T) {
		for i := 0; i < extra; i++ {
			if err := r.db.Put([]byte(fmt.Sprintf("zz%08d", i)), []byte(fmt.Sprintf("late-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		drain(t)
		if snap := ship.Snapshot(); snap.FullSegments < 10 || snap.WireBytes >= snap.RawBytes {
			t.Fatalf("shipped %d segments, raw=%d wire=%d: want many, and fewer bytes on the wire", snap.FullSegments, snap.RawBytes, snap.WireBytes)
		}
	})
	phase("promoted", func(t *testing.T) {
		b := r.backups[0]
		r.primary.Detach(b)
		db2, err := b.Promote()
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		for i := 1; i <= n; i += 17 {
			k := fmt.Sprintf("user%08d", i)
			if v, found, err := db2.Get([]byte(k)); err != nil || !found || !bytes.Equal(v, val) {
				t.Fatalf("promoted Get(%s) = %q, %v, %v", k, v, found, err)
			}
		}
		for i := 0; i < extra; i += 13 {
			k := fmt.Sprintf("zz%08d", i)
			if v, found, err := db2.Get([]byte(k)); err != nil || !found || string(v) != fmt.Sprintf("late-%d", i) {
				t.Fatalf("promoted Get(%s) = %q, %v, %v", k, v, found, err)
			}
		}
	})
}

// TestPackedShipsLandTheBytesRawShipsDo: the ship codec is wire-only.
// The same load — overwrites and tombstones included — shipped as page
// streams and shipped raw leaves the two backups' devices byte for byte
// alike, every index segment among them, and the backup that received
// every level packed is promoted and answers each key as the primary
// does.
func TestPackedShipsLandTheBytesRawShipsDo(t *testing.T) {
	const n = 4000
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%08d", i*7919%n)) }
	load := func(codec shipcodec.Codec, ship *metrics.ShipStats) *rig {
		// The engine runs one compaction at a time, and none is pending
		// while the next batch is written: both rigs run the same jobs
		// in the same order, so their backups allocate the same segments.
		r := newRigCfg(t, SendIndex, 1, nil,
			func(pc *PrimaryConfig) {
				pc.ShipCodec = codec
				pc.ShipPageSize = lsmOpts().NodeSize
				pc.Ship = ship
			}, nil)
		for i := 0; i < n; i++ {
			var err error
			switch {
			case i%11 == 3:
				err = r.db.Delete(key(i / 2))
			case i%5 == 0:
				err = r.db.Put(key(i/3), []byte(fmt.Sprintf("again-%d", i)))
			default:
				err = r.db.Put(key(i), []byte(fmt.Sprintf("value-%d", i)))
			}
			if err != nil {
				t.Fatal(err)
			}
			if i%64 == 63 {
				if err := r.db.WaitIdle(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := r.db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := r.db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		r.checkHealthy()
		return r
	}
	var packedShip, rawShip metrics.ShipStats
	packed, raw := load(shipcodec.Flate, &packedShip), load(shipcodec.None, &rawShip)

	ps, rs := packedShip.Snapshot(), rawShip.Snapshot()
	t.Logf("packed: %d segments, raw=%d wire=%d; uncompressed: %d segments, wire=%d",
		ps.FullSegments, ps.RawBytes, ps.WireBytes, rs.FullSegments, rs.WireBytes)
	if ps.FullSegments == 0 || ps.FullSegments != rs.FullSegments || ps.RawBytes != rs.RawBytes {
		t.Fatalf("the two loads shipped %d and %d segments of %d and %d bytes", ps.FullSegments, rs.FullSegments, ps.RawBytes, rs.RawBytes)
	}
	// Leaves are columnar on the device already, so packing narrows
	// their offsets and drops the padding: about 0.7 of the image here
	// (0.32 when a leaf was 21-byte entries, for the same wire bytes).
	if 4*ps.WireBytes > 3*ps.RawBytes {
		t.Fatalf("packed ships put %d bytes on the wire for %d of segments", ps.WireBytes, ps.RawBytes)
	}

	segs := packed.devB[0].Segments()
	if got := raw.devB[0].Segments(); fmt.Sprint(got) != fmt.Sprint(segs) {
		t.Fatalf("backups hold different segments: %v and %v", segs, got)
	}
	geo := packed.devB[0].Geometry()
	a, b := make([]byte, geo.SegmentSize()), make([]byte, geo.SegmentSize())
	for _, seg := range segs {
		if err := packed.devB[0].ReadAt(geo.Pack(seg, 0), a); err != nil {
			t.Fatal(err)
		}
		if err := raw.devB[0].ReadAt(geo.Pack(seg, 0), b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("backup segment %d differs between packed and raw ships", seg)
		}
	}
	indexSegs := 0
	for _, lvl := range packed.backups[0].LevelStates(lsmOpts().MaxLevels) {
		indexSegs += len(lvl.Segments)
	}
	if indexSegs == 0 {
		t.Fatal("the backup installed no index segments: nothing was compared")
	}

	bk := packed.backups[0]
	packed.primary.Detach(bk)
	promoted, err := bk.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	for i := 0; i < n; i++ {
		want, wantFound, err := packed.db.Get(key(i))
		if err != nil {
			t.Fatal(err)
		}
		got, found, err := promoted.Get(key(i))
		if err != nil || found != wantFound || !bytes.Equal(got, want) {
			t.Fatalf("promoted Get(%s) = %q, %v, %v; the primary answers %q, %v", key(i), got, found, err, want, wantFound)
		}
	}
}
