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

// newShipRig builds a Send-Index rig with checksum verification on
// every device (delta shipping needs it: the primary verifies bases
// before diffing, the backup verifies them before reconstructing) and
// the ship codec + delta encoder enabled.
func newShipRig(t *testing.T, ship *metrics.ShipStats) (*rig, *storage.VerifyingDevice) {
	t.Helper()
	return newShipRigOver(t, ship, func(dev storage.Device) storage.Device { return dev })
}

// newShipRigOver is newShipRig with the primary's verifier stacked on
// under(its raw device).
func newShipRigOver(t *testing.T, ship *metrics.ShipStats, under func(storage.Device) storage.Device) (*rig, *storage.VerifyingDevice) {
	t.Helper()
	var bVer *storage.VerifyingDevice
	r := newRigCfg(t, SendIndex, 1,
		func(o *lsm.Options) {
			o.Device = storage.AsVerifying(under(o.Device))
		},
		func(pc *PrimaryConfig) {
			pc.ShipCodec = shipcodec.Flate
			pc.ShipDelta = true
			pc.ShipPageSize = lsmOpts().NodeSize
			pc.Ship = ship
		},
		func(c *BackupConfig) {
			bVer = storage.AsVerifying(c.Device)
			c.Device = bVer
		})
	return r, bVer
}

// TestShipDeltaShipsAndReconverges drives the delta path end to end:
// after a base load settles the tree, a second batch of keys sorting
// after every existing key forces compactions whose outputs share a
// page-aligned prefix with the replaced destination-level segments, so
// the encoder's page diff wins. The backup must reconstruct each base
// through the inverse offset rewrite and land byte-identical segments —
// proven by promoting it and reading everything back.
func TestShipDeltaShipsAndReconverges(t *testing.T) {
	ship := &metrics.ShipStats{}
	r, _ := newShipRig(t, ship)

	const n = 2500
	r.load(n, 40)

	// Keys past the existing keyspace: merged output preserves the old
	// entries' order and value offsets, keeping early leaves identical.
	const extra = 1200
	for i := 0; i < extra; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("zz%08d", i)), []byte(fmt.Sprintf("late-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	r.checkHealthy()

	snap := ship.Snapshot()
	t.Logf("ship: raw=%d wire=%d full=%d delta=%d fallbacks=%d",
		snap.RawBytes, snap.WireBytes, snap.FullSegments, snap.DeltaSegments, snap.Fallbacks)
	if snap.FullSegments+snap.DeltaSegments == 0 {
		t.Fatal("nothing shipped")
	}
	if snap.DeltaSegments == 0 {
		t.Fatal("append-only growth shipped no delta segments; delta encoder never won")
	}
	if snap.Fallbacks != 0 {
		t.Fatalf("%d delta ships were rejected by the backup", snap.Fallbacks)
	}
	if snap.WireBytes >= snap.RawBytes {
		t.Fatalf("compression saved nothing: raw=%d wire=%d", snap.RawBytes, snap.WireBytes)
	}

	// Byte convergence: the promoted backup serves every key.
	b := r.backups[0]
	r.primary.Detach(b)
	db2, err := b.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i += 17 {
		k := fmt.Sprintf("user%08d", i)
		if _, found, err := db2.Get([]byte(k)); err != nil || !found {
			t.Fatalf("promoted Get(%s) = %v, %v", k, found, err)
		}
	}
	for i := 0; i < extra; i += 13 {
		k := fmt.Sprintf("zz%08d", i)
		v, found, err := db2.Get([]byte(k))
		if err != nil || !found || string(v) != fmt.Sprintf("late-%d", i) {
			t.Fatalf("promoted Get(%s) = %q, %v, %v", k, v, found, err)
		}
	}
}

// bulkReads counts the bytes a device serves in reads larger than a
// B+-tree node. On a primary those are delta bases read back whole: a
// merge reads its levels a node at a time, and keys and records are
// smaller still.
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

// TestShipDeltaReadsNoBaseThatCannotWin: a base is read back only when
// one of its pages can be left out of the delta. Batches that each sort
// before every existing key shift all older entries by a fraction of a
// leaf, so no page of a rebuilt level equals the page it replaces: the
// primary reads not one base byte and ships full frames, as it would
// have after reading them. Keys appended past the keyspace then leave
// the early pages of each level as they were, and the same primary
// reads those bases and wins with them.
func TestShipDeltaReadsNoBaseThatCannotWin(t *testing.T) {
	ship := &metrics.ShipStats{}
	var bulk *bulkReads
	r, _ := newShipRigOver(t, ship, func(dev storage.Device) storage.Device {
		bulk = &bulkReads{Device: dev}
		return bulk
	})
	drain := func() {
		t.Helper()
		if err := r.db.Flush(); err != nil {
			t.Fatal(err)
		}
		r.checkHealthy()
	}

	const n = 2500
	val := bytes.Repeat([]byte("v"), 40)
	for i := n; i > 0; i-- {
		if err := r.db.Put([]byte(fmt.Sprintf("user%08d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	drain()
	snap := ship.Snapshot()
	t.Logf("descending batches: full=%d delta=%d, %d base bytes read", snap.FullSegments, snap.DeltaSegments, bulk.bytes.Load())
	if snap.FullSegments < 10 || snap.DeltaSegments != 0 {
		t.Fatalf("shipped %d full and %d delta segments, want every one of many in full", snap.FullSegments, snap.DeltaSegments)
	}
	if got := bulk.bytes.Load(); got != 0 {
		t.Fatalf("read %d bytes of delta bases no page of which could match", got)
	}

	for i := 0; i < 1200; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("zz%08d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	drain()
	snap = ship.Snapshot()
	t.Logf("appended keys: full=%d delta=%d, %d base bytes read", snap.FullSegments, snap.DeltaSegments, bulk.bytes.Load())
	if snap.DeltaSegments == 0 || bulk.bytes.Load() == 0 {
		t.Fatalf("%d delta segments from %d base bytes read: the guard skips bases that win", snap.DeltaSegments, bulk.bytes.Load())
	}
	if snap.Fallbacks != 0 {
		t.Fatalf("%d delta ships were rejected by the backup", snap.Fallbacks)
	}
}

// TestShipDeltaBaseMismatchFallsBack corrupts the backup's stored copy
// of every installed index segment, then drives more compactions. Each
// delta the primary ships now references a base the backup cannot
// verify, so the backup must answer with a request-scoped error — not
// die — and the primary must fall back to re-shipping the full frame
// on the same connection: no retries-to-eviction, no degraded window.
func TestShipDeltaBaseMismatchFallsBack(t *testing.T) {
	ship := &metrics.ShipStats{}
	r, bVer := newShipRig(t, ship)

	const n = 2500
	r.load(n, 40)

	// Flip a bit in every index segment the backup has installed, below
	// the verifier.
	b := r.backups[0]
	b.mu.Lock()
	var locals []storage.SegmentID
	for _, st := range b.levels {
		locals = append(locals, st.Segments...)
	}
	b.mu.Unlock()
	if len(locals) == 0 {
		t.Fatal("backup installed no index segments")
	}
	geo := r.devB[0].Geometry()
	for _, seg := range locals {
		var byt [1]byte
		off := geo.Pack(seg, 64)
		if err := r.devB[0].ReadAt(off, byt[:]); err != nil {
			t.Fatal(err)
		}
		byt[0] ^= 0x40
		if err := r.devB[0].WriteAt(off, byt[:]); err != nil {
			t.Fatal(err)
		}
		bVer.Invalidate(seg)
	}

	const extra = 1200
	for i := 0; i < extra; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("zz%08d", i)), []byte(fmt.Sprintf("late-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.db.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	snap := ship.Snapshot()
	t.Logf("ship: full=%d delta=%d fallbacks=%d", snap.FullSegments, snap.DeltaSegments, snap.Fallbacks)
	if snap.Fallbacks == 0 {
		t.Fatal("corrupted bases produced no delta fallbacks")
	}
	if err := r.primary.Err(); err != nil {
		t.Fatalf("fallback poisoned the primary: %v", err)
	}
	if evs := r.primary.Evictions(); len(evs) != 0 {
		t.Fatalf("fallback evicted the backup: %+v", evs)
	}
	if r.primary.Degraded() {
		t.Fatal("primary degraded after delta fallback")
	}
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
		r := newRigCfg(t, SendIndex, 1,
			// One compaction at a time, and none pending while the next
			// batch is written: both rigs run the same jobs in the same
			// order, so their backups allocate the same segments.
			func(o *lsm.Options) { o.CompactionWorkers = 1 },
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
