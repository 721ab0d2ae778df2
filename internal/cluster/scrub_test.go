package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tebis/internal/replica"
	"tebis/internal/storage"
)

// scrubKey spreads keys across the whole byte space so every region —
// and therefore every server — holds data.
func scrubKey(i int) []byte {
	return []byte(fmt.Sprintf("%c%06d", byte(1+i%251), i))
}

func scrubVal(i int) []byte {
	return []byte(fmt.Sprintf("val-%06d-%s", i, strings.Repeat("x", 40)))
}

// TestClusterScrubRepairsCorruptNode is the crash-consistency
// acceptance test (DESIGN.md "Storage integrity"): read every probed key
// so the victim's index nodes are cached, flip bits in every framed
// segment on that node, then require that (1) reads during the
// corruption window never return wrong data — each Get either fails with
// a checksum error or returns the correct bytes, and every Get the
// victim serves fails, because no node cached from an invalidated
// segment may answer for it, (2) a cluster-wide scrub detects every
// corrupted segment, (3) repair restores each segment byte-equivalent to
// its pre-corruption image from the surviving replica copies, and (4)
// the cluster is fully readable and writable afterwards.
func TestClusterScrubRepairsCorruptNode(t *testing.T) {
	c := newTestCluster(t, replica.SendIndex, 1)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 6000
	for i := 0; i < n; i++ {
		if err := cl.Put(scrubKey(i), scrubVal(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	const victim = "s0"
	rmap, err := c.Map()
	if err != nil {
		t.Fatal(err)
	}
	onVictim := 0
	for i := 0; i < n; i += 3 {
		if val, found, err := cl.Get(scrubKey(i)); err != nil || !found || !bytes.Equal(val, scrubVal(i)) {
			t.Fatalf("Get %d before corruption: found=%v err=%v", i, found, err)
		}
		if r, err := rmap.Lookup(scrubKey(i)); err != nil {
			t.Fatal(err)
		} else if r.Primary == victim {
			onVictim++
		}
	}
	node := c.Nodes[victim]
	ver, ok := node.Server.Device().(*storage.VerifyingDevice)
	if !ok {
		t.Fatalf("server device is %T, want *storage.VerifyingDevice", node.Server.Device())
	}
	geo := ver.Geometry()

	// Snapshot every framed segment's payload before corrupting it.
	type segSnap struct {
		seg     storage.SegmentID
		payload []byte
	}
	var snaps []segSnap
	for _, seg := range ver.Segments() {
		tr, err := ver.SegmentInfo(seg)
		if err != nil || tr.PayloadLen == 0 {
			continue // unframed (e.g. the live log tail) — not scrubbed
		}
		p := make([]byte, tr.PayloadLen)
		if err := ver.ReadAt(geo.Pack(seg, 0), p); err != nil {
			t.Fatalf("snapshot segment %d: %v", seg, err)
		}
		snaps = append(snaps, segSnap{seg: seg, payload: p})
	}
	if len(snaps) < 3 {
		t.Fatalf("node %s holds only %d framed segments; load too small", victim, len(snaps))
	}

	// Flip one bit inside each payload on the raw medium, below the
	// verifier, then drop the cached verification state.
	rng := rand.New(rand.NewSource(0x5C2B))
	for _, s := range snaps {
		off := geo.Pack(s.seg, rng.Int63n(int64(len(s.payload))))
		var b [1]byte
		if err := node.Device.ReadAt(off, b[:]); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 1 << uint(rng.Intn(8))
		if err := node.Device.WriteAt(off, b[:]); err != nil {
			t.Fatal(err)
		}
		ver.Invalidate(s.seg)
	}

	// Corruption window: no read may return wrong data. Reads served by
	// the corrupted node fail with a typed checksum error; everything
	// else must come back byte-correct.
	sawChecksum := 0
	for i := 0; i < n; i += 3 {
		val, found, err := cl.Get(scrubKey(i))
		if err != nil {
			if !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("Get %d: unexpected error class: %v", i, err)
			}
			sawChecksum++
			continue
		}
		if !found {
			t.Fatalf("key %d vanished during corruption window", i)
		}
		if !bytes.Equal(val, scrubVal(i)) {
			t.Fatalf("key %d: read returned wrong data during corruption window", i)
		}
	}
	if sawChecksum == 0 {
		t.Fatal("corruption window produced no checksum failures; corruption did not land on read paths")
	}
	if sawChecksum != onVictim {
		t.Fatalf("%d of the %d gets served by %s failed with a checksum error; the rest were answered from nodes cached before the corruption",
			sawChecksum, onVictim, victim)
	}

	rep, err := c.ScrubAll()
	if err != nil {
		t.Fatalf("ScrubAll: %v", err)
	}
	detected := len(rep.LocalFindings) + rep.BackupFindings
	if detected != len(snaps) {
		t.Fatalf("scrub detected %d corrupt segments, corrupted %d (report %+v)", detected, len(snaps), rep)
	}
	if got := rep.LocalRepaired + rep.BackupRepaired; got != detected || rep.Unrepairable != 0 {
		t.Fatalf("repaired %d of %d, unrepairable %d", got, detected, rep.Unrepairable)
	}

	// Every repaired segment must verify and match its pre-corruption
	// payload byte for byte.
	for _, s := range snaps {
		if err := ver.VerifySegment(s.seg); err != nil {
			t.Fatalf("segment %d still corrupt after repair: %v", s.seg, err)
		}
		tr, err := ver.SegmentInfo(s.seg)
		if err != nil {
			t.Fatal(err)
		}
		p := make([]byte, tr.PayloadLen)
		if err := ver.ReadAt(geo.Pack(s.seg, 0), p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, s.payload) {
			t.Fatalf("segment %d repaired but not byte-equivalent", s.seg)
		}
	}

	// A second pass must come back clean.
	rep2, err := c.ScrubAll()
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("second scrub pass not clean: %+v", rep2)
	}

	// Full readability and writability after repair.
	for i := 0; i < n; i += 7 {
		val, found, err := cl.Get(scrubKey(i))
		if err != nil || !found {
			t.Fatalf("Get %d after repair: found=%v err=%v", i, found, err)
		}
		if !bytes.Equal(val, scrubVal(i)) {
			t.Fatalf("key %d wrong after repair", i)
		}
	}
	for i := n; i < n+500; i++ {
		if err := cl.Put(scrubKey(i), scrubVal(i)); err != nil {
			t.Fatalf("Put %d after repair: %v", i, err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
}
