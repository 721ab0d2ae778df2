package cluster

import (
	"testing"

	"tebis/internal/replica"
)

// TestShipCompressionConvergence is the ship-codec acceptance test at
// the cluster level (DESIGN.md "Replication"): with the default
// configuration — compression ON — a replicated
// Send-Index cluster must (1) actually move fewer bytes on the wire than
// the raw segment images it ships, and (2) still converge byte-for-byte:
// every framed segment on every node verifies against its stored CRC.
// The codec is wire-only, so the backups' devices hold the same images an
// uncompressed cluster would.
func TestShipCompressionConvergence(t *testing.T) {
	c := newTestCluster(t, replica.SendIndex, 1)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Two rounds of overlapping writes: the second round rewrites every
	// third key so higher-level compactions replace existing segments.
	const n = 6000
	for i := 0; i < n; i++ {
		if err := cl.Put(spreadKey(i), spreadVal(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 3 {
		if err := cl.Put(spreadKey(i), spreadVal(i+1)); err != nil {
			t.Fatalf("rewrite %d: %v", i, err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	var raw, wire, full uint64
	for name, node := range c.Nodes {
		s := node.Server.ShipStats().Snapshot()
		t.Logf("%s: raw=%d wire=%d segments=%d", name, s.RawBytes, s.WireBytes, s.FullSegments)
		raw += s.RawBytes
		wire += s.WireBytes
		full += s.FullSegments
	}
	if full == 0 {
		t.Fatal("no index segments shipped; load too small to drive compactions")
	}
	if raw == 0 || wire >= raw {
		t.Fatalf("compression saved nothing: raw=%d wire=%d", raw, wire)
	}

	// Byte convergence: every backup reconstructed segment images whose
	// frames verify.
	if verifyFramedSegments(t, c) == 0 {
		t.Fatal("no framed segment to verify")
	}

	// And the data is still all there.
	for i := 0; i < n; i += 7 {
		want := spreadVal(i)
		if i%3 == 0 {
			want = spreadVal(i + 1)
		}
		v, found, err := cl.Get(spreadKey(i))
		if err != nil || !found || string(v) != string(want) {
			t.Fatalf("Get %d = %q, %v, %v; want %q", i, v, found, err, want)
		}
	}
}
