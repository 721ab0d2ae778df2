package master

import (
	"errors"
	"fmt"
	"testing"

	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/rdma"
	"tebis/internal/region"
	"tebis/internal/replica"
	"tebis/internal/server"
	"tebis/internal/storage"
	"tebis/internal/zklite"
)

// harness builds a zk store + N real region servers + one master
// candidate, without the cluster package (that has its own tests).
type harness struct {
	t       *testing.T
	zk      *zklite.Store
	servers map[string]*server.Server
	devs    map[string]*storage.MemDevice
	sess    map[string]*zklite.Session
	m       *Master
}

func newHarness(t *testing.T, n int, mode replica.Mode) *harness {
	t.Helper()
	h := &harness{
		t:       t,
		zk:      zklite.NewStore(),
		servers: map[string]*server.Server{},
		devs:    map[string]*storage.MemDevice{},
		sess:    map[string]*zklite.Session{},
	}
	boot := h.zk.NewSession()
	if err := boot.CreateAll(ServersPath); err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Name: "m0", Session: h.zk.NewSession(), Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	h.m = m
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		dev, err := storage.NewMemDevice(16<<10, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Name:     name,
			Device:   dev,
			Endpoint: rdma.NewEndpoint(name),
			Cycles:   &metrics.Cycles{},
			LSM: lsm.Options{
				NodeSize: 512, GrowthFactor: 4, L0MaxKeys: 256, MaxLevels: 5,
			},
			Workers: 2, SpinThreads: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		sess := h.zk.NewSession()
		if _, err := sess.Create(ServersPath+"/"+name, nil, zklite.FlagEphemeral); err != nil {
			t.Fatal(err)
		}
		h.servers[name] = srv
		h.devs[name] = dev
		h.sess[name] = sess
		m.RegisterHost(srv)
	}
	t.Cleanup(func() {
		for _, s := range h.servers {
			s.Close()
		}
		for _, d := range h.devs {
			d.Close()
		}
	})
	return h
}

func (h *harness) bootstrap(regions, replicas int) *region.Map {
	h.t.Helper()
	names := make([]string, 0, len(h.servers))
	for i := 0; i < len(h.servers); i++ {
		names = append(names, fmt.Sprintf("s%d", i))
	}
	rmap, err := region.Partition(regions, names, replicas)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.m.Bootstrap(rmap); err != nil {
		h.t.Fatal(err)
	}
	return rmap
}

func TestBootstrapOpensAllRegions(t *testing.T) {
	h := newHarness(t, 3, replica.SendIndex)
	rmap := h.bootstrap(6, 1)

	// Every region has its primary and backup hosted where the map says.
	for _, r := range rmap.Regions {
		if _, ok := h.servers[r.Primary].Primary(r.ID); !ok {
			t.Fatalf("region %d primary missing on %s", r.ID, r.Primary)
		}
		for _, b := range r.Backups {
			if _, ok := h.servers[b].Backup(r.ID); !ok {
				t.Fatalf("region %d backup missing on %s", r.ID, b)
			}
		}
	}
	// The map is published for clients and successor masters.
	sess := h.zk.NewSession()
	data, err := sess.Get(RegionMapPath)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := region.Decode(data)
	if err != nil || len(pub.Regions) != 6 {
		t.Fatalf("published map: %v, %v", pub, err)
	}
}

func TestBootstrapRequiresLeadership(t *testing.T) {
	h := newHarness(t, 1, replica.NoReplication)
	// A second candidate is not the leader.
	m2, err := New(Config{Name: "m1", Session: h.zk.NewSession(), Mode: replica.NoReplication})
	if err != nil {
		t.Fatal(err)
	}
	m2.RegisterHost(h.servers["s0"])
	rmap, _ := region.Partition(1, []string{"s0"}, 0)
	if err := m2.Bootstrap(rmap); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("err = %v", err)
	}
}

func TestBootstrapUnknownHostFails(t *testing.T) {
	h := newHarness(t, 1, replica.NoReplication)
	rmap, _ := region.Partition(1, []string{"ghost"}, 0)
	if err := h.m.Bootstrap(rmap); !errors.Is(err, ErrNoHost) {
		t.Fatalf("err = %v", err)
	}
}

func TestHandlePrimaryFailurePromotesAndRefills(t *testing.T) {
	h := newHarness(t, 3, replica.SendIndex)
	h.bootstrap(3, 1)

	// Write through region 0's primary directly.
	var r0 region.Region
	for _, r := range h.m.Map().Regions {
		if r.ID == 0 {
			r0 = r
		}
	}
	p, _ := h.servers[r0.Primary].Primary(0)
	for i := 0; i < 800; i++ {
		if err := p.DB().Put([]byte(fmt.Sprintf("key%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.servers[r0.Primary].WaitIdle(); err != nil {
		t.Fatal(err)
	}

	// Fail the primary's server.
	h.servers[r0.Primary].Crash()
	h.sess[r0.Primary].Close()
	if err := h.m.HandleServerFailure(r0.Primary); err != nil {
		t.Fatal(err)
	}

	after := h.m.Map()
	nr, _ := after.ByID(0)
	if nr.Primary == r0.Primary {
		t.Fatal("failed server still primary")
	}
	if nr.Primary != r0.Backups[0] {
		t.Fatalf("promoted %s, expected %s", nr.Primary, r0.Backups[0])
	}
	// Replica set refilled from the remaining live server.
	if len(nr.Backups) != 1 {
		t.Fatalf("backups after refill = %v", nr.Backups)
	}
	// Data must be served by the new primary.
	np, ok := h.servers[nr.Primary].Primary(0)
	if !ok {
		t.Fatal("new primary not hosted")
	}
	for i := 0; i < 800; i += 37 {
		v, found, err := np.DB().Get([]byte(fmt.Sprintf("key%06d", i)))
		if err != nil || !found || string(v) != "v" {
			t.Fatalf("Get after promotion = %q, %v, %v", v, found, err)
		}
	}
	// The refilled backup holds synced state: promote it too and check.
	nb, ok := h.servers[nr.Backups[0]].Backup(0)
	if !ok {
		t.Fatal("refilled backup not hosted")
	}
	np.Detach(nb)
	db2, err := nb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, found, _ := db2.Get([]byte("key000100")); !found {
		t.Fatal("refilled backup missing synced data")
	}
}

// testFailoverThroughAFollower fails a three-way region's primary twice.
// The first failover promotes one backup and rewires the other behind
// it, re-keying its log map through the promoted backup's; writes and
// compactions then reach that follower in the new primary's segment
// space, and the second failover promotes it. Every key written before
// and between the failures reads back from it. The backup promoted first
// holds other segments on its device, so its segment numbers are not the
// old primary's, and a follower that kept its old keying would resolve
// the new primary's segments to the wrong local ones.
func testFailoverThroughAFollower(t *testing.T, mode replica.Mode) {
	h := newHarness(t, 3, mode)
	// Region 0 is s0's, backed by s1 and s2 (region.Partition).
	for i := 0; i < 7; i++ {
		if _, err := h.devs["s1"].Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	h.bootstrap(2, 2)
	write := func(srv, prefix string, n int) {
		t.Helper()
		p, ok := h.servers[srv].Primary(0)
		if !ok {
			t.Fatalf("%s does not host region 0's primary", srv)
		}
		for i := 0; i < n; i++ {
			if err := p.DB().Put([]byte(fmt.Sprintf("%s%06d", prefix, i)), []byte(fmt.Sprintf("%s-v%d", prefix, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.servers[srv].WaitIdle(); err != nil {
			t.Fatal(err)
		}
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
	}
	fail := func(name string) region.Region {
		t.Helper()
		h.servers[name].Crash()
		h.sess[name].Close()
		if err := h.m.HandleServerFailure(name); err != nil {
			t.Fatal(err)
		}
		r, _ := h.m.Map().ByID(0)
		return r
	}

	r0, _ := h.m.Map().ByID(0)
	const n = 1200
	write(r0.Primary, "key", n)
	r1 := fail(r0.Primary)
	if r1.Primary != r0.Backups[0] || len(r1.Backups) != 1 || r1.Backups[0] != r0.Backups[1] {
		t.Fatalf("after the first failover: primary %s, backups %v", r1.Primary, r1.Backups)
	}
	write(r1.Primary, "post", n)
	r2 := fail(r1.Primary)
	if r2.Primary != r0.Backups[1] {
		t.Fatalf("after the second failover: primary %s, want the follower %s", r2.Primary, r0.Backups[1])
	}
	fp, ok := h.servers[r2.Primary].Primary(0)
	if !ok {
		t.Fatalf("final primary %s not hosted", r2.Primary)
	}
	for _, prefix := range []string{"key", "post"} {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("%s%06d", prefix, i)
			v, found, err := fp.DB().Get([]byte(k))
			if err != nil || !found || string(v) != fmt.Sprintf("%s-v%d", prefix, i) {
				t.Fatalf("Get(%s) after two failovers = %q, %v, %v", k, v, found, err)
			}
		}
	}
}

func TestFailoverThroughAFollowerSendIndex(t *testing.T) {
	testFailoverThroughAFollower(t, replica.SendIndex)
}

func TestFailoverThroughAFollowerBuildIndex(t *testing.T) {
	testFailoverThroughAFollower(t, replica.BuildIndex)
}

func TestHandleBackupFailureRefills(t *testing.T) {
	h := newHarness(t, 3, replica.SendIndex)
	h.bootstrap(3, 1)

	var target region.Region
	for _, r := range h.m.Map().Regions {
		if r.ID == 1 {
			target = r
		}
	}
	failed := target.Backups[0]
	// Only regions where `failed` is a backup (not primary) matter here;
	// crash it and let the master reconcile everything.
	h.servers[failed].Crash()
	h.sess[failed].Close()
	if err := h.m.HandleServerFailure(failed); err != nil {
		t.Fatal(err)
	}
	after := h.m.Map()
	for _, r := range after.Regions {
		if r.Primary == failed {
			t.Fatalf("region %d still led by failed server", r.ID)
		}
		for _, b := range r.Backups {
			if b == failed {
				t.Fatalf("region %d still backed by failed server", r.ID)
			}
		}
	}
}

func TestNoCapacityError(t *testing.T) {
	// Two servers, one backup each: when the primary fails and the only
	// backup also already failed, recovery must report ErrNoCapacity.
	h := newHarness(t, 2, replica.SendIndex)
	h.bootstrap(1, 1)
	r, _ := h.m.Map().ByID(0)

	// Kill the backup first (marks it dead), then the primary.
	h.servers[r.Backups[0]].Crash()
	h.sess[r.Backups[0]].Close()
	if err := h.m.HandleServerFailure(r.Backups[0]); err != nil {
		t.Fatal(err)
	}
	h.servers[r.Primary].Crash()
	h.sess[r.Primary].Close()
	if err := h.m.HandleServerFailure(r.Primary); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v", err)
	}
}

func TestTakeOverLoadsPublishedMap(t *testing.T) {
	h := newHarness(t, 3, replica.SendIndex)
	h.bootstrap(4, 1)

	// First master dies; a successor wins the election and takes over.
	sess2 := h.zk.NewSession()
	m2, err := New(Config{Name: "m1", Session: sess2, Mode: replica.SendIndex})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range h.servers {
		m2.RegisterHost(s)
	}
	if err := m2.TakeOver(); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("premature takeover err = %v", err)
	}
	h.m.sess.Close() // the leader's session expires
	if err := m2.TakeOver(); err != nil {
		t.Fatal(err)
	}
	if got := len(m2.Map().Regions); got != 4 {
		t.Fatalf("successor sees %d regions", got)
	}
}

func TestMaxBackups(t *testing.T) {
	rmap, _ := region.Partition(4, []string{"a", "b", "c"}, 2)
	if maxBackups(rmap) != 2 {
		t.Fatalf("maxBackups = %d", maxBackups(rmap))
	}
	rmap2, _ := region.Partition(4, []string{"a"}, 0)
	if maxBackups(rmap2) != 0 {
		t.Fatalf("maxBackups no-repl = %d", maxBackups(rmap2))
	}
}
