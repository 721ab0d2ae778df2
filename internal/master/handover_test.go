package master

import (
	"fmt"
	"testing"

	"tebis/internal/region"
	"tebis/internal/replica"
)

// testHandOver moves a region's primary role to one of its backups: the
// planned hand-over is MigrateRegion to a server already in the replica
// group, which ships nothing.
func testHandOver(t *testing.T, mode replica.Mode) {
	h := newHarness(t, 3, mode)
	h.bootstrap(2, 2) // three-way so a third replica also follows the hand-over

	r0, _ := h.m.Map().ByID(0)
	p, _ := h.servers[r0.Primary].Primary(0)
	const n = 1200
	for i := 0; i < n; i++ {
		if err := p.DB().Put([]byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	target := r0.Backups[0]
	shipped, err := h.m.MigrateRegion(0, target)
	if err != nil {
		t.Fatal(err)
	}
	if shipped != 0 {
		t.Fatalf("hand-over to an existing backup shipped %d bytes", shipped)
	}

	after, _ := h.m.Map().ByID(0)
	if after.Primary != target {
		t.Fatalf("primary = %s, want %s", after.Primary, target)
	}
	if after.Epoch <= r0.Epoch {
		t.Fatalf("epoch did not advance on hand-over: %d -> %d", r0.Epoch, after.Epoch)
	}
	// The old primary must now be a backup.
	foundOld := false
	for _, b := range after.Backups {
		if b == r0.Primary {
			foundOld = true
		}
		if b == target {
			t.Fatal("new primary still listed as backup")
		}
	}
	if !foundOld {
		t.Fatalf("old primary %s not demoted into backups %v", r0.Primary, after.Backups)
	}

	// The new primary serves every record.
	np, ok := h.servers[target].Primary(0)
	if !ok {
		t.Fatal("target does not host the primary")
	}
	for i := 0; i < n; i += 7 {
		k := fmt.Sprintf("key%06d", i)
		v, found, err := np.DB().Get([]byte(k))
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("handed-over Get(%s) = %q, %v, %v", k, v, found, err)
		}
	}

	// New writes replicate to all three replicas (including the demoted
	// old primary): write, then crash the new primary and promote the
	// old one back via the failure path.
	for i := 0; i < 400; i++ {
		if err := np.DB().Put([]byte(fmt.Sprintf("post%06d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.servers[target].WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if err := np.Err(); err != nil {
		t.Fatal(err)
	}

	h.servers[target].Crash()
	h.sess[target].Close()
	if err := h.m.HandleServerFailure(target); err != nil {
		t.Fatal(err)
	}
	final, _ := h.m.Map().ByID(0)
	fp, ok := h.servers[final.Primary].Primary(0)
	if !ok {
		t.Fatalf("final primary %s not hosted", final.Primary)
	}
	// Both pre- and post-hand-over writes must survive.
	for _, k := range []string{"key000500", "post000399"} {
		if _, found, err := fp.DB().Get([]byte(k)); err != nil || !found {
			t.Fatalf("Get(%s) after hand-over+failover = %v, %v", k, found, err)
		}
	}
}

func TestHandOverSendIndex(t *testing.T)  { testHandOver(t, replica.SendIndex) }
func TestHandOverBuildIndex(t *testing.T) { testHandOver(t, replica.BuildIndex) }

func TestHandOverRefusals(t *testing.T) {
	h := newHarness(t, 3, replica.SendIndex)
	h.bootstrap(1, 1)
	h.seed(0, 300)
	r0, _ := h.m.Map().ByID(0)
	if _, err := h.m.MigrateRegion(region.ID(99), r0.Backups[0]); err == nil {
		t.Fatal("hand-over of unknown region accepted")
	}
	h.assertConverged(h.m)
}
