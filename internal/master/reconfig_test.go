package master

import (
	"errors"
	"fmt"
	"testing"

	"tebis/internal/region"
	"tebis/internal/replica"
)

// seed writes n keys into a region's engine through its primary.
func (h *harness) seed(id region.ID, n int) {
	h.t.Helper()
	r, err := h.m.Map().ByID(id)
	if err != nil {
		h.t.Fatal(err)
	}
	p, ok := h.servers[r.Primary].Primary(id)
	if !ok {
		h.t.Fatalf("region %d primary not hosted on %s", id, r.Primary)
	}
	for i := 0; i < n; i++ {
		if err := p.DB().Put([]byte(fmt.Sprintf("key%06d", i)), []byte("v")); err != nil {
			h.t.Fatal(err)
		}
	}
	if err := h.servers[r.Primary].WaitIdle(); err != nil {
		h.t.Fatal(err)
	}
}

func TestMigrateWholeRegion(t *testing.T) {
	h := newHarness(t, 3, replica.SendIndex)
	h.bootstrap(1, 1)
	h.seed(0, 500)

	// s2 is outside the replica group: seeding it must ship bytes.
	shipped, err := h.m.MigrateRegion(0, "s2")
	if err != nil {
		t.Fatal(err)
	}
	if shipped <= 0 {
		t.Fatalf("whole-region migration shipped %d bytes", shipped)
	}
	after, _ := h.m.Map().ByID(0)
	if after.Primary != "s2" {
		t.Fatalf("primary after migration = %s", after.Primary)
	}
	// The old primary stays in the replica group as a backup.
	var oldStays bool
	for _, b := range after.Backups {
		if b == "s0" {
			oldStays = true
		}
	}
	if !oldStays {
		t.Fatalf("old primary missing from backups: %v", after.Backups)
	}
	np, ok := h.servers["s2"].Primary(0)
	if !ok {
		t.Fatal("destination does not host the region")
	}
	for i := 0; i < 500; i += 41 {
		key := []byte(fmt.Sprintf("key%06d", i))
		if _, found, err := np.DB().Get(key); err != nil || !found {
			t.Fatalf("key %s after migration: found=%v err=%v", key, found, err)
		}
	}
}

// successor elects a new master after the current leader's session dies
// and lets it take over (resuming any in-flight reconfiguration).
func (h *harness) successor() *Master {
	h.t.Helper()
	m2, err := New(Config{Name: "m-succ", Session: h.zk.NewSession(), Mode: h.m.mode})
	if err != nil {
		h.t.Fatal(err)
	}
	for _, s := range h.servers {
		m2.RegisterHost(s)
	}
	h.m.sess.Close()
	if err := m2.TakeOver(); err != nil {
		h.t.Fatal(err)
	}
	return m2
}

// assertConverged checks the invariants a resumed reconfiguration must
// restore: intent cleared, published map valid, nothing frozen, and at
// most one serving primary per region.
func (h *harness) assertConverged(m2 *Master) {
	h.t.Helper()
	if data, err := h.zk.NewSession().Get(ReconfigPath); err == nil && len(data) != 0 {
		h.t.Fatalf("reconfig intent not cleared: %s", data)
	}
	rmap := m2.Map()
	if err := rmap.Validate(); err != nil {
		h.t.Fatal(err)
	}
	for _, r := range rmap.Regions {
		var serving []string
		for name, srv := range h.servers {
			if srv.Frozen(r.ID) {
				h.t.Fatalf("%s left region %d frozen", name, r.ID)
			}
			if _, ok := srv.Primary(r.ID); ok {
				serving = append(serving, name)
			}
		}
		if len(serving) > 1 {
			h.t.Fatalf("region %d has %d primaries: %v", r.ID, len(serving), serving)
		}
	}
}

func TestMasterFailoverMidMigration(t *testing.T) {
	// bootstrap(1, 1) places region 0 on s0 with backup s1; s2 is outside.
	flavors := []struct {
		name string
		to   string // destination server
	}{
		{"whole-to-outsider", "s2"},
		{"whole-to-backup", "s1"},
	}
	for _, fl := range flavors {
		for _, phase := range []string{PhasePrepare, PhaseTransfer, PhaseSwitch} {
			t.Run(fl.name+"/"+phase, func(t *testing.T) {
				h := newHarness(t, 3, replica.SendIndex)
				h.bootstrap(1, 1)
				h.seed(0, 500)
				id := region.ID(0)

				h.m.ReconfigHook = func(op, ph string) error {
					if op == OpMigrate && ph == phase {
						return errors.New("master killed by test")
					}
					return nil
				}
				if _, err := h.m.MigrateRegion(id, fl.to); !errors.Is(err, ErrReconfigInterrupted) {
					t.Fatalf("err = %v, want interrupted", err)
				}

				m2 := h.successor()
				h.assertConverged(m2)
				moved, _ := m2.Map().ByID(id)
				if moved.Primary != fl.to {
					if phase == PhaseSwitch {
						t.Fatal("post-publish interruption must complete, not abort")
					}
					if fl.to == "s1" {
						h.assertBackupSurvivedAbort(m2)
						return
					}
					// Rolled back: the source still serves and the migration
					// re-runs cleanly.
					if _, err := m2.MigrateRegion(id, fl.to); err != nil {
						t.Fatalf("re-migrate after abort: %v", err)
					}
					moved, _ = m2.Map().ByID(id)
				}
				if moved.Primary != fl.to {
					t.Fatalf("primary after recovery = %s", moved.Primary)
				}
				h.assertConverged(m2)
				// Exactly one serving copy: the destination's primary.
				np, ok := h.servers[fl.to].Primary(id)
				if !ok {
					t.Fatal("destination not serving after recovery")
				}
				if len(moved.Backups) == 0 {
					t.Fatal("migrated region has no backups after recovery")
				}
				if err := np.DB().Put([]byte("zzz-post-recovery"), []byte("v")); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// assertBackupSurvivedAbort checks that rolling back a hand-over to s1,
// region 0's pre-existing backup, left it an attached replica: a write
// after the abort reaches it, and when the primary then crashes the
// failure path can promote it.
func (h *harness) assertBackupSurvivedAbort(m2 *Master) {
	h.t.Helper()
	if _, ok := h.servers["s1"].Backup(0); !ok {
		h.t.Fatal("abort dropped the pre-existing backup the published map still lists")
	}
	p, _ := h.servers["s0"].Primary(0)
	if err := p.DB().Put([]byte("zzz-post-abort"), []byte("v")); err != nil {
		h.t.Fatal(err)
	}
	if err := h.servers["s0"].WaitIdle(); err != nil {
		h.t.Fatal(err)
	}
	h.servers["s0"].Crash()
	h.sess["s0"].Close()
	if err := m2.HandleServerFailure("s0"); err != nil {
		h.t.Fatalf("failover onto the surviving backup: %v", err)
	}
	np, ok := h.servers["s1"].Primary(0)
	if !ok {
		h.t.Fatal("s1 not promoted")
	}
	for _, k := range []string{"key000123", "zzz-post-abort"} {
		if _, found, err := np.DB().Get([]byte(k)); err != nil || !found {
			h.t.Fatalf("Get(%s) after abort+failover = %v, %v", k, found, err)
		}
	}
}
