package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tebis/internal/integrity"
	"tebis/internal/replica"
	"tebis/internal/storage"
)

// spreadKey spreads keys across the whole byte space so every region —
// and therefore every server — holds data.
func spreadKey(i int) []byte {
	return []byte(fmt.Sprintf("%c%06d", byte(1+i%251), i))
}

func spreadVal(i int) []byte {
	return []byte(fmt.Sprintf("val-%06d-%s", i, strings.Repeat("x", 40)))
}

// verifyFramedSegments runs VerifySegment on every framed segment of
// every live node's device, failing the test on the first that does not
// verify, and returns how many it checked. Unframed segments (a live log
// tail, a fresh allocation) hold nothing durable yet and are skipped.
func verifyFramedSegments(t *testing.T, c *Cluster) int {
	t.Helper()
	checked := 0
	for name, node := range c.Nodes {
		if !c.alive(name) {
			continue
		}
		ver := node.Server.Device().(*storage.VerifyingDevice)
		for _, seg := range ver.Segments() {
			if _, err := ver.SegmentInfo(seg); errors.Is(err, integrity.ErrNoFrame) {
				continue
			} else if err != nil {
				t.Fatalf("%s: segment %d: %v", name, seg, err)
			}
			if err := ver.VerifySegment(seg); err != nil {
				t.Fatalf("%s: segment %d does not verify: %v", name, seg, err)
			}
			checked++
		}
	}
	return checked
}

// TestClusterCorruptNodeFailsOver is the crash-consistency acceptance
// test (DESIGN.md "Storage integrity"): read every probed key so the
// victim's index nodes are cached, flip a bit in every framed segment on
// that node — a primary for some regions and a backup for others — then
// require that (1) reads during the corruption window never return wrong
// data — each Get either fails with a checksum error or returns the
// correct bytes, and every Get the victim serves fails, because no node
// cached from an invalidated segment may answer for it, (2) every
// corrupted segment fails verification, (3) the victim reports the
// device fault through Ready, and (4) once the victim is failed over —
// the one recovery path (§3.5) — every acknowledged write reads back
// byte-correct, the cluster takes writes, and every region has its full
// set of backups again on the surviving servers.
func TestClusterCorruptNodeFailsOver(t *testing.T) {
	const replicas = 1
	c := newTestCluster(t, replica.SendIndex, replicas)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 6000
	for i := 0; i < n; i++ {
		if err := cl.Put(spreadKey(i), spreadVal(i)); err != nil {
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
	primaryOf, backupOf := 0, 0
	for _, r := range rmap.Regions {
		if r.Primary == victim {
			primaryOf++
		}
		if slices.Contains(r.Backups, victim) {
			backupOf++
		}
	}
	if primaryOf == 0 || backupOf == 0 {
		t.Fatalf("%s is primary of %d regions and backup of %d; want both roles", victim, primaryOf, backupOf)
	}
	onVictim := 0
	for i := 0; i < n; i += 3 {
		if val, found, err := cl.Get(spreadKey(i)); err != nil || !found || !bytes.Equal(val, spreadVal(i)) {
			t.Fatalf("Get %d before corruption: found=%v err=%v", i, found, err)
		}
		if r, err := rmap.Lookup(spreadKey(i)); err != nil {
			t.Fatal(err)
		} else if r.Primary == victim {
			onVictim++
		}
	}
	node := c.Nodes[victim]
	if err := node.Server.Ready(); err != nil {
		t.Fatalf("%s not ready before corruption: %v", victim, err)
	}
	ver := node.Server.Device().(*storage.VerifyingDevice)
	geo := ver.Geometry()

	// Every framed segment on the victim, with its payload length.
	type target struct {
		seg storage.SegmentID
		len int64
	}
	var targets []target
	for _, seg := range ver.Segments() {
		tr, err := ver.SegmentInfo(seg)
		if err != nil || tr.PayloadLen == 0 {
			continue // unframed (e.g. the live log tail)
		}
		targets = append(targets, target{seg: seg, len: int64(tr.PayloadLen)})
	}
	if len(targets) < 3 {
		t.Fatalf("node %s holds only %d framed segments; load too small", victim, len(targets))
	}

	// Flip one bit inside each payload on the raw medium, below the
	// verifier, then drop the cached verification state.
	rng := rand.New(rand.NewSource(0x5C2B))
	for _, tg := range targets {
		off := geo.Pack(tg.seg, rng.Int63n(tg.len))
		var b [1]byte
		if err := node.Device.ReadAt(off, b[:]); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 1 << uint(rng.Intn(8))
		if err := node.Device.WriteAt(off, b[:]); err != nil {
			t.Fatal(err)
		}
		ver.Invalidate(tg.seg)
	}

	// Corruption window: no read may return wrong data. Reads served by
	// the corrupted node fail with a typed checksum error; everything
	// else must come back byte-correct.
	sawChecksum := 0
	for i := 0; i < n; i += 3 {
		val, found, err := cl.Get(spreadKey(i))
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
		if !bytes.Equal(val, spreadVal(i)) {
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

	for _, tg := range targets {
		if err := ver.VerifySegment(tg.seg); !errors.Is(err, storage.ErrChecksum) {
			t.Fatalf("corrupted segment %d verifies as %v, want a checksum error", tg.seg, err)
		}
	}
	want := fmt.Sprintf("device faulted: %d corrupt segments", len(targets))
	if err := node.Server.Ready(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%s.Ready() = %v, want %q", victim, err, want)
	}

	// Recovery is failing the node over.
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		val, found, err := cl.Get(spreadKey(i))
		if err != nil || !found {
			t.Fatalf("Get %d after failover: found=%v err=%v", i, found, err)
		}
		if !bytes.Equal(val, spreadVal(i)) {
			t.Fatalf("key %d wrong after failover", i)
		}
	}
	for i := n; i < n+500; i++ {
		if err := cl.Put(spreadKey(i), spreadVal(i)); err != nil {
			t.Fatalf("Put %d after failover: %v", i, err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if rmap, err = c.Map(); err != nil {
		t.Fatal(err)
	}
	for _, r := range rmap.Regions {
		if r.Primary == victim || slices.Contains(r.Backups, victim) || len(r.Backups) != replicas {
			t.Fatalf("region %d after failover: primary %s, backups %v; want %d backups, none %s",
				r.ID, r.Primary, r.Backups, replicas, victim)
		}
	}
	if err := c.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if verifyFramedSegments(t, c) == 0 {
		t.Fatal("no framed segment on the surviving servers")
	}
}
