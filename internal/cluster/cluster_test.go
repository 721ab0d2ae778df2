package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/rdma"
	"tebis/internal/replica"
)

func testConfig(mode replica.Mode, replicas int) Config {
	return Config{
		Servers:     3,
		Regions:     8,
		Replicas:    replicas,
		Mode:        mode,
		SegmentSize: 16 << 10,
		LSM: lsm.Options{
			NodeSize:     512,
			GrowthFactor: 4,
			L0MaxKeys:    192,
			MaxLevels:    5,
		},
		Workers:          4,
		SpinThreads:      2,
		MasterCandidates: 2,
	}
}

func newTestCluster(t *testing.T, mode replica.Mode, replicas int) *Cluster {
	t.Helper()
	c, err := New(testConfig(mode, replicas))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
		if err := c.RunErr(); err != nil {
			t.Errorf("master loop: %v", err)
		}
	})
	return c
}

func TestClusterEndToEnd(t *testing.T) {
	c := newTestCluster(t, replica.SendIndex, 1)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 2000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("user%08d", i*7919%100000))
		if err := cl.Put(k, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 11 {
		k := []byte(fmt.Sprintf("user%08d", i*7919%100000))
		_, found, err := cl.Get(k)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !found {
			t.Fatalf("key %s missing", k)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tot := c.Totals()
	if tot.DeviceBytes == 0 || tot.NetServerBytes == 0 || tot.Cycles.Total() == 0 {
		t.Fatalf("counters empty: %+v", tot)
	}
}

func TestClusterKeysSpreadAcrossRegions(t *testing.T) {
	c := newTestCluster(t, replica.NoReplication, 0)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Keys with diverse prefixes must land in different regions —
	// exercised indirectly: all servers should see traffic.
	for i := 0; i < 600; i++ {
		k := []byte{byte(i * 37), byte(i), byte(i >> 3), 'k'}
		if err := cl.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for name, n := range c.Nodes {
		if n.Server.Endpoint().RxBytes() == 0 {
			t.Fatalf("server %s received no traffic", name)
		}
	}
}

func testPrimaryFailover(t *testing.T, mode replica.Mode) {
	c := newTestCluster(t, mode, 2)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 1500
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("key-%02x-%06d", i%251, i)
		if err := cl.Put([]byte(keys[i]), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := c.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	// Kill one server; the master promotes backups for its primary
	// regions and reassigns its backup slots.
	if err := c.Crash("s0"); err != nil {
		t.Fatal(err)
	}

	// Every acknowledged write must still be readable (clients refresh
	// their region map on wrong-region replies).
	missing := 0
	for i := 0; i < n; i++ {
		v, found, err := cl.Get([]byte(keys[i]))
		if err != nil {
			t.Fatalf("Get(%s) after failover: %v", keys[i], err)
		}
		if !found {
			missing++
			continue
		}
		if string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("Get(%s) = %q after failover", keys[i], v)
		}
	}
	if missing > 0 {
		t.Fatalf("%d/%d acknowledged writes lost after failover", missing, n)
	}

	// The cluster must keep accepting writes.
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("post-%06d", i)
		if err := cl.Put([]byte(k), []byte("after")); err != nil {
			t.Fatalf("post-failover Put: %v", err)
		}
	}
	v, found, err := cl.Get([]byte("post-000199"))
	if err != nil || !found || string(v) != "after" {
		t.Fatalf("post-failover Get = %q, %v, %v", v, found, err)
	}
}

func TestPrimaryFailoverSendIndex(t *testing.T)  { testPrimaryFailover(t, replica.SendIndex) }
func TestPrimaryFailoverBuildIndex(t *testing.T) { testPrimaryFailover(t, replica.BuildIndex) }

func TestMasterFailover(t *testing.T) {
	c := newTestCluster(t, replica.SendIndex, 1)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 300; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the master: primaries keep serving during the gap (§3.5).
	if err := c.FailMaster(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i += 17 {
		if _, found, err := cl.Get([]byte(fmt.Sprintf("k%06d", i))); err != nil || !found {
			t.Fatalf("Get during master gap: %v, %v", found, err)
		}
	}

	// The new master must handle a subsequent server failure.
	if err := c.Crash("s1"); err != nil {
		t.Fatal(err)
	}
	lost := 0
	for i := 0; i < 300; i++ {
		if _, found, err := cl.Get([]byte(fmt.Sprintf("k%06d", i))); err != nil {
			t.Fatal(err)
		} else if !found {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d writes lost after crash under new master", lost)
	}
}

func TestSendIndexClusterBeatsBuildIndexOnBackupIO(t *testing.T) {
	// Both runs must execute one job sequence each, whatever the timing:
	// the scheduler drains a frozen L0 before it cascades an over-full
	// level, so whether a second freeze lands before or after the first
	// L0 job retires decides how large L1 is when it spills — and, two
	// levels down, whether a ten-segment L2→L3 merge happens at all. So
	// no engine may freeze twice between two drains. The primary freezes
	// every L0MaxKeys (192) puts. A Build-Index backup gets its records a
	// flushed log segment at a time, from a worker beside its control
	// loop: the value is sized so a 16 KB segment holds fewer records
	// (142) than an L0, the drain interval is shorter than both, and
	// WaitIdle waits for that worker before it waits for the engine.
	value := bytes.Repeat([]byte("0123456789"), 9)
	const drainEvery = 120
	run := func(mode replica.Mode) Totals {
		c := newTestCluster(t, mode, 1)
		cl, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := 0; i < 4000; i++ {
			k := []byte(fmt.Sprintf("key-%02x-%06d", i%251, i))
			if err := cl.Put(k, value); err != nil {
				t.Fatal(err)
			}
			if i%drainEvery == drainEvery-1 {
				if err := c.WaitIdle(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
		return c.Totals()
	}
	send := run(replica.SendIndex)
	build := run(replica.BuildIndex)

	// The paper's headline trade: Send-Index lowers total device I/O
	// and CPU, and raises network traffic (§5.1).
	if send.DeviceBytes >= build.DeviceBytes {
		t.Errorf("Send-Index device bytes %d >= Build-Index %d", send.DeviceBytes, build.DeviceBytes)
	}
	// The claim is about reads — the backup skips the compaction's read
	// I/O — and the sum with the (larger) write traffic can hide it.
	t.Logf("device bytes read: Send-Index %d, Build-Index %d", send.DeviceReadBytes, build.DeviceReadBytes)
	if send.DeviceReadBytes >= build.DeviceReadBytes {
		t.Errorf("Send-Index device bytes read %d >= Build-Index %d", send.DeviceReadBytes, build.DeviceReadBytes)
	}
	if send.Cycles.Total() >= build.Cycles.Total() {
		t.Errorf("Send-Index cycles %d >= Build-Index %d", send.Cycles.Total(), build.Cycles.Total())
	}
	if send.NetServerBytes <= build.NetServerBytes {
		t.Errorf("Send-Index net bytes %d <= Build-Index %d", send.NetServerBytes, build.NetServerBytes)
	}
	if send.Cycles[metrics.CompRewriteIndex] == 0 {
		t.Error("no rewrite cycles recorded under Send-Index")
	}
	if build.Cycles[metrics.CompRewriteIndex] != 0 {
		t.Error("rewrite cycles recorded under Build-Index")
	}
}

// TestCrashUnderLoadLosesNoAckedWrites crashes a server while clients
// are actively writing. Requests in flight at the crash may fail, but
// every acknowledged write must survive the failover — the durability
// contract of the replication protocol (§3.2: a client ack means the
// record is in every replica's memory).
func TestCrashUnderLoadLosesNoAckedWrites(t *testing.T) {
	c := newTestCluster(t, replica.SendIndex, 2)

	const writers = 4
	type ack struct {
		key, val string
	}
	ackCh := make(chan ack, 65536)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		cl, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(w int, cl clientIface) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("w%d-%02x-%06d", w, i%199, i)
				v := fmt.Sprintf("v%d-%d", w, i)
				if err := cl.Put([]byte(k), []byte(v)); err != nil {
					// In-flight failures during the crash are allowed;
					// the op was never acknowledged.
					continue
				}
				ackCh <- ack{k, v}
			}
		}(w, cl)
	}

	// Let load build, then crash a server mid-stream.
	time.Sleep(150 * time.Millisecond)
	if err := c.Crash("s2"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(ackCh)

	verifier, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer verifier.Close()
	total, lost := 0, 0
	latest := map[string]string{}
	for a := range ackCh {
		latest[a.key] = a.val // overwrites keep the newest ack
	}
	for k, v := range latest {
		total++
		got, found, err := verifier.Get([]byte(k))
		if err != nil {
			t.Fatalf("verify Get(%s): %v", k, err)
		}
		if !found || string(got) != v {
			lost++
		}
	}
	if total == 0 {
		t.Fatal("no acknowledged writes recorded")
	}
	if lost > 0 {
		t.Fatalf("%d/%d acknowledged writes lost after crash under load", lost, total)
	}
	t.Logf("verified %d acknowledged writes across failover", total)
}

// clientIface is the slice of the client API the load generator needs.
type clientIface interface {
	Put(key, value []byte) error
}

// TestBackupEvictionReplacementAndFailover is the end-to-end acceptance
// test for the hardened control plane: a backup node goes silent (every
// RDMA operation drops on the wire), the region's primary retries,
// evicts it, and keeps serving; the master replaces the backup and
// drives Sync to restore the replication factor; and a subsequent crash
// of the primary promotes the replacement, which serves every
// acknowledged write identically.
func TestBackupEvictionReplacementAndFailover(t *testing.T) {
	cfg := testConfig(replica.SendIndex, 1)
	cfg.Regions = 1
	cfg.Retry = replica.RetryPolicy{AckTimeout: 40 * time.Millisecond, MaxRetries: 1, Backoff: time.Millisecond}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
		if err := c.RunErr(); err != nil {
			t.Errorf("master loop: %v", err)
		}
	})

	rmap, err := c.Map()
	if err != nil {
		t.Fatal(err)
	}
	reg := rmap.Regions[0]
	primaryName, backupName := reg.Primary, reg.Backups[0]

	// The primary's readiness probe, as /readyz would consult it.
	health := obs.NewHealth()
	c.Nodes[primaryName].Server.RegisterHealth(health)
	if !health.Ready() {
		t.Fatalf("primary not ready before any fault: %v", health.Failing())
	}

	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The backup node goes dark: every write and send touching its NIC
	// silently vanishes, the failure mode timeouts exist to catch.
	bEp := c.Nodes[backupName].Server.Endpoint()
	bEp.InjectFault(func(op rdma.FaultOp, from, to string, seq int, payload []byte) rdma.Fault {
		return rdma.Fault{Action: rdma.FaultDrop}
	})

	const n = 1200
	val := func(i int) string { return fmt.Sprintf("v-%d", i) }
	key := func(i int) string { return fmt.Sprintf("key-%02x-%06d", i%97, i) }
	for i := 0; i < n; i++ {
		if err := cl.Put([]byte(key(i)), []byte(val(i))); err != nil {
			t.Fatalf("Put %d during degradation: %v", i, err)
		}
	}

	p, ok := c.Nodes[primaryName].Server.Primary(reg.ID)
	if !ok {
		t.Fatalf("%s lost primary of region %d", primaryName, reg.ID)
	}
	evs := p.Evictions()
	if len(evs) != 1 || evs[0].Backup != backupName {
		t.Fatalf("evictions = %+v, want one eviction of %s", evs, backupName)
	}
	if !p.Degraded() {
		t.Fatal("primary not degraded after evicting its only backup")
	}
	snap := c.Nodes[primaryName].Failures.Snapshot()
	if snap.Retries == 0 || snap.Evictions != 1 || !snap.Degraded {
		t.Fatalf("failure metrics = %+v", snap)
	}
	// Degraded but serving: reads and writes continue on the primary.
	if v, found, err := cl.Get([]byte(key(7))); err != nil || !found || string(v) != val(7) {
		t.Fatalf("degraded Get = %q, %v, %v", v, found, err)
	}
	// ...but readiness must flip unhealthy for the degraded window, so
	// a load balancer consulting /readyz stops routing new sessions.
	if health.Ready() {
		t.Fatal("primary still ready while degraded")
	}
	if why := health.Failing()[primaryName]; why == "" {
		t.Fatalf("readiness failure carries no reason: %v", health.Failing())
	}

	// The dead node is still coordination-service-live (its session
	// never expired), so the master repairs on the primary's report
	// instead of a liveness event. Clear the fault first: the evicted
	// node "recovered" and can later rejoin, but the replacement must
	// come from outside (ReplaceBackup avoids the failed server).
	bEp.InjectFault(nil)
	if err := c.Leader().ReplaceBackup(reg.ID, backupName); err != nil {
		t.Fatal(err)
	}
	rmap2, err := c.Map()
	if err != nil {
		t.Fatal(err)
	}
	reg2 := rmap2.Regions[0]
	if len(reg2.Backups) != 1 || reg2.Backups[0] == backupName {
		t.Fatalf("post-repair backups = %v (failed was %s)", reg2.Backups, backupName)
	}
	if p.Degraded() {
		t.Fatal("primary still degraded after master repair")
	}
	if got := c.Nodes[primaryName].Failures.Snapshot(); got.Degraded || got.ResyncBytes == 0 {
		t.Fatalf("post-repair metrics = %+v", got)
	}
	// Replication factor restored: readiness recovers with it.
	if !health.Ready() {
		t.Fatalf("primary not ready after repair: %v", health.Failing())
	}

	// More acknowledged writes on the repaired group.
	for i := n; i < n+300; i++ {
		if err := cl.Put([]byte(key(i)), []byte(val(i))); err != nil {
			t.Fatalf("post-repair Put: %v", err)
		}
	}

	// Now the primary crashes: the synced replacement is promoted and
	// must serve every acknowledged write identically.
	if err := c.Crash(primaryName); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n+300; i++ {
		v, found, err := cl.Get([]byte(key(i)))
		if err != nil {
			t.Fatalf("Get(%s) after failover: %v", key(i), err)
		}
		if !found || string(v) != val(i) {
			t.Fatalf("Get(%s) = %q, %v after failover; want %q", key(i), v, found, val(i))
		}
	}

	// The shared journal must have resolved the whole transition
	// sequence, in order: the eviction, then the replacement's state
	// transfer (sync start/done before the master publishes the refilled
	// slot), and finally the crash failover's promotion.
	firstSeq := func(typ string) uint64 {
		for _, e := range c.Events().Events() {
			if e.Type == typ {
				return e.Seq
			}
		}
		t.Fatalf("journal has no %s event", typ)
		return 0
	}
	evicted := firstSeq(obs.EvBackupEvicted)
	syncStart := firstSeq(obs.EvSyncStarted)
	syncDone := firstSeq(obs.EvSyncDone)
	replaced := firstSeq(obs.EvBackupReplaced)
	promoted := firstSeq(obs.EvPromoted)
	failed := firstSeq(obs.EvPrimaryFailed)
	if !(evicted < syncStart && syncStart < syncDone && syncDone < replaced) {
		t.Fatalf("repair events out of order: evicted=%d sync_started=%d sync_done=%d replaced=%d",
			evicted, syncStart, syncDone, replaced)
	}
	if promoted < replaced || failed < replaced {
		t.Fatalf("failover events precede repair: promoted=%d failover=%d replaced=%d",
			promoted, failed, replaced)
	}
	for _, e := range c.Events().OfType(obs.EvBackupEvicted) {
		if e.Field("backup") != backupName {
			t.Fatalf("eviction journaled for %q, want %q", e.Field("backup"), backupName)
		}
	}
}
