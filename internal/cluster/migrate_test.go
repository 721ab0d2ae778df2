package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tebis/internal/client"
	"tebis/internal/lsm"
	"tebis/internal/obs"
	"tebis/internal/replica"
	"tebis/internal/ycsb"
)

// TestMigrateUnderLoad is the migration acceptance test: while clients
// keep writing and reading a region, MigrateRegion moves it whole to a
// server outside its replica group — with zero lost acked writes, zero
// wrong reads, and clients converging through stale-epoch retries. The
// destination is seeded over the index-ship path, observable as shipped
// bytes.
func TestMigrateUnderLoad(t *testing.T) {
	c, err := New(Config{
		Servers:     3,
		Regions:     2,
		Replicas:    1,
		Mode:        replica.SendIndex,
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
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
		if err := c.RunErr(); err != nil {
			t.Errorf("master loop: %v", err)
		}
	}()

	// With 2 regions over (s0,s1,s2): region 0 = [,0x8000) primary s0
	// with backup s1, region 1 = [0x8000,) primary s1 with backup s2.
	// Ordered keys all start with a zero byte, so the whole write stream
	// lands in region 0, and s2 is outside its replica group. A few keys
	// in region 1 check that the migration leaves other regions alone.
	seed, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	other := make(map[string]string)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("\xffother%04d", i)
		v := fmt.Sprintf("other-%d", i)
		if err := seed.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("region 1 put: %v", err)
		}
		other[k] = v
	}

	// Writers draw zipfian-distributed indices within their own disjoint
	// ordered-key stripes and keep going until told to stop, which comes
	// only after each has issued ops against the post-migration map. One
	// client each (clients are created up front; NewClient is not
	// goroutine-safe).
	const (
		writers = 4
		stripe  = 1500
	)
	type writerState struct {
		cl    *client.Client
		acked map[string]string
		ops   atomic.Uint64
	}
	ws := make([]*writerState, writers)
	for w := 0; w < writers; w++ {
		cl, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		ws[w] = &writerState{cl: cl, acked: make(map[string]string, stripe)}
	}

	var (
		wg         sync.WaitGroup
		stop       atomic.Bool
		wrongReads atomic.Uint64
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := ws[w]
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			zipf := ycsb.NewZipfian(stripe)
			var lastKey []byte
			for i := 0; !stop.Load(); i++ {
				k := ycsb.OrderedKey(uint64(w)*stripe + zipf.Next(rng))
				v := fmt.Sprintf("w%d-%d", w, i)
				if err := st.cl.Put(k, []byte(v)); err != nil {
					t.Errorf("writer %d put %d: %v", w, i, err)
					return
				}
				st.acked[string(k)] = v
				st.ops.Add(1)
				// Read-your-writes spot check while the region moves
				// underneath us.
				if i%64 == 63 && lastKey != nil {
					got, found, err := st.cl.Get(lastKey)
					if err != nil {
						t.Errorf("writer %d get: %v", w, err)
						return
					}
					// Zipfian draws repeat keys, so compare against the
					// latest acked write, not the one from last round.
					if !found || string(got) != st.acked[string(lastKey)] {
						wrongReads.Add(1)
					}
				}
				lastKey = k
			}
		}(w)
	}
	// waitOps waits until every writer has issued n more ops.
	waitOps := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for _, st := range ws {
			target := st.ops.Load() + n
			for st.ops.Load() < target {
				if time.Now().After(deadline) || t.Failed() {
					stop.Store(true)
					wg.Wait()
					t.Fatal("writers made no progress")
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}

	waitOps(stripe / 4)
	shipped, err := c.MigrateRegion(0, "s2")
	if err != nil {
		stop.Store(true)
		wg.Wait()
		t.Fatalf("migrate: %v", err)
	}
	if shipped <= 0 {
		t.Errorf("destination outside the replica group was not seeded over the ship path: %d bytes", shipped)
	}
	waitOps(128)
	stop.Store(true)
	wg.Wait()
	if wrongReads.Load() != 0 {
		t.Fatalf("%d wrong reads during the migration", wrongReads.Load())
	}

	// The published map converged: the same two ranges, region 0 now
	// served by s2 with the old primary kept as a backup.
	rm, err := c.Map()
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Validate(); err != nil {
		t.Fatalf("published map invalid: %v", err)
	}
	if len(rm.Regions) != 2 {
		t.Fatalf("got %d regions, want 2", len(rm.Regions))
	}
	moved, err := rm.ByID(0)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Primary != "s2" || !strings.Contains(fmt.Sprint(moved.Backups), "s0") {
		t.Fatalf("region 0 primary %q backups %v, want s2 with s0 kept", moved.Primary, moved.Backups)
	}

	// Clients chased the move via stale-epoch retries rather than
	// erroring out.
	var stale uint64
	for _, st := range ws {
		stale += st.cl.StaleRetries()
	}
	if stale == 0 {
		t.Fatal("no client observed a stale epoch across a live migration")
	}
	t.Logf("migration shipped %d bytes; clients took %d stale-epoch retries", shipped, stale)

	// Zero lost acked writes: every acknowledged key is readable with
	// its exact value through a fresh client on the new topology.
	check, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	verify := func(k, want string) {
		t.Helper()
		got, found, err := check.Get([]byte(k))
		if err != nil {
			t.Fatalf("verify get %q: %v", k, err)
		}
		if !found {
			t.Fatalf("acked key %q lost after the migration", k)
		}
		if string(got) != want {
			t.Fatalf("acked key %q = %q, want %q", k, got, want)
		}
	}
	for _, st := range ws {
		for k, v := range st.acked {
			verify(k, v)
		}
	}
	for k, v := range other {
		verify(k, v)
	}

	// The ship-path seeding is observable: the master exports the
	// migration and nonzero tebis_region_ship_bytes_total for region 0.
	reg := obs.NewRegistry()
	c.Observe(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sum := func(prefix string) float64 {
		var total float64
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			total += v
		}
		return total
	}
	if got := sum("tebis_region_ship_bytes_total{"); got != float64(shipped) {
		t.Fatalf("tebis_region_ship_bytes_total for region 0 = %v, want %d:\n%s", got, shipped, buf.String())
	}
	if got := sum("tebis_region_migrations_total{"); got != 1 {
		t.Fatalf("tebis_region_migrations_total = %v, want 1", got)
	}
}
