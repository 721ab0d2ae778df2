package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tebis/internal/client"
	"tebis/internal/kv"
	"tebis/internal/lsm"
	"tebis/internal/replica"
)

// steadyCluster returns a client of a replicated Send-Index cluster
// sized so that nothing but the request path runs while a test measures
// it: one region whose L0 and log tail are far larger than what the test
// writes, so no put freezes a memtable, seals a segment or starts a
// compaction.
func steadyCluster(t *testing.T) *client.Client {
	t.Helper()
	c, err := New(Config{
		Servers:     2,
		Regions:     1,
		Replicas:    1,
		Mode:        replica.SendIndex,
		SegmentSize: 1 << 20,
		LSM: lsm.Options{
			NodeSize:     512,
			GrowthFactor: 4,
			L0MaxKeys:    1 << 16,
			MaxLevels:    4,
		},
		Workers:     2,
		SpinThreads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestRequestPathAllocCeilings pins what one steady-state round trip —
// client → wire → rdma → spinning thread → worker → engine → replica
// append → reply — costs the heap. AllocsPerRun counts mallocs of the
// whole process, so the spinning threads, the workers and the backup
// are inside each number. The message path's own rule (DESIGN.md "Data
// path"): every message is built and read in buffers that already
// exist, so the only allocation an op makes between the client call and
// lsm.DB is the slice it hands back to its caller, and a put hands back
// nothing. What is left below is the engine's, named per op.
func TestRequestPathAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	cl := steadyCluster(t)
	value := bytes.Repeat([]byte("v"), 100)
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%06d", i)) }
	for i := 0; i < 64; i++ {
		if err := cl.Put(key(i), value); err != nil {
			t.Fatal(err)
		}
	}
	k := key(32)

	for _, tc := range []struct {
		name    string
		ceiling float64
		op      func()
	}{
		// The skiplist's predecessor array (memtable.InsertPrev). Nothing
		// on the message path: the request is encoded in a pooled send
		// buffer, its body lands in a recycled task body, the record goes
		// into the log tail, the replica append is a one-sided write out of
		// it, and the reply is a status byte the client never copies out.
		{"put", 1, func() {
			if err := cl.Put(k, value); err != nil {
				t.Fatal(err)
			}
		}},
		// The record header and the record lsm.DB.Get reads out of the log
		// (vlog.Get; the header escapes through the Device interface), and
		// the reply payload the client copies out of its reply slot once
		// and returns the value from.
		{"get", 3, func() {
			if v, found, err := cl.Get(k); err != nil || !found || !bytes.Equal(v, value) {
				t.Fatalf("Get = %d bytes, %v, %v", len(v), found, err)
			}
		}},
	} {
		tc.op() // settle scratch buffers and the send-buffer pool
		if got := testing.AllocsPerRun(200, tc.op); got > tc.ceiling {
			t.Errorf("a steady-state %s allocates %v times, ceiling %v", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %v allocs/op (ceiling %v)", tc.name, got, tc.ceiling)
		}
	}

	// Scan(start, 16): per returned pair the engine reads the record
	// header and the record (vlog.Get, once; the pair's key and value
	// both point into that buffer): 32; its cursor list, memtable cursor
	// and memtable iterator: 3; on the client the reply payload and the
	// pair slice whose keys and values point into it: 2 — no per-pair
	// clone, and no key fetched to order entries whose prefixes differ.
	start := key(16)
	scan := func() {
		pairs, err := cl.Scan(start, 16)
		if err != nil || len(pairs) != 16 {
			t.Fatalf("Scan = %d pairs, %v", len(pairs), err)
		}
	}
	scan()
	const scanCeiling = 37
	if got := testing.AllocsPerRun(100, scan); got > scanCeiling {
		t.Errorf("a steady-state Scan(start, 16) allocates %v times, ceiling %v", got, scanCeiling)
	} else {
		t.Logf("scan: %v allocs/op (ceiling %v)", got, scanCeiling)
	}
}

// TestReturnedSlicesAreTheCallers is the ownership half of the rule:
// goroutines sharing one Client — some through Async — put, get and scan
// values of mixed sizes, retain every slice the client returned, and
// re-verify all of them byte for byte once the traffic is over. A value
// or pair that aliases a pooled send buffer, a worker's reply scratch or
// a registered reply slot is overwritten by a later op; a task body
// recycled before its reply was written corrupts the put that owned it.
// Either way a retained slice stops matching what was written.
func TestReturnedSlicesAreTheCallers(t *testing.T) {
	cl := steadyCluster(t)

	const (
		workers = 4
		keys    = 48
		rounds  = 300
	)
	// Every key's value is a function of the key alone, so a slice read at
	// any time has exactly one right content, whichever writer wrote last.
	valueOf := func(i int) []byte {
		n := 8 + (i*131)%1400 // below, at and above the default reply slot
		v := make([]byte, n)
		for j := range v {
			v[j] = byte(i*31 + j*7)
		}
		return v
	}
	keyOf := func(i int) []byte { return []byte(fmt.Sprintf("own%04d", i)) }
	for i := 0; i < keys; i++ {
		if err := cl.Put(keyOf(i), valueOf(i)); err != nil {
			t.Fatal(err)
		}
	}

	type kept struct {
		i   int
		val []byte
	}
	var (
		mu       sync.Mutex
		retained []kept
		pairs    []kv.Pair
	)
	keep := func(i int, v []byte) {
		mu.Lock()
		retained = append(retained, kept{i, v})
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			async := cl.Async(8)
			for r := 0; r < rounds; r++ {
				i := rng.Intn(keys)
				switch {
				case w%2 == 0 && r%3 == 0:
					async.Put(keyOf(i), valueOf(i))
					async.Get(keyOf(i), func(v []byte, found bool) {
						if !found {
							t.Errorf("async get: key %d missing", i)
						}
						keep(i, v)
					})
				case r%3 == 1:
					if err := cl.Put(keyOf(i), valueOf(i)); err != nil {
						t.Errorf("put: %v", err)
					}
				case r%3 == 2:
					ps, err := cl.Scan(keyOf(i), 6)
					if err != nil {
						t.Errorf("scan: %v", err)
					}
					mu.Lock()
					pairs = append(pairs, ps...)
					mu.Unlock()
				default:
					v, found, err := cl.Get(keyOf(i))
					if err != nil || !found {
						t.Errorf("get key %d: found=%v err=%v", i, found, err)
					}
					keep(i, v)
				}
			}
			if err := async.Wait(); err != nil {
				t.Errorf("async: %v", err)
			}
		}(w)
	}
	wg.Wait()

	if len(retained) == 0 || len(pairs) == 0 {
		t.Fatalf("retained %d values and %d pairs; the test lost its premise", len(retained), len(pairs))
	}
	for _, k := range retained {
		if !bytes.Equal(k.val, valueOf(k.i)) {
			t.Fatalf("a retained value of key %d changed after Get returned it: the slice aliases a reused buffer", k.i)
		}
	}
	for _, p := range pairs {
		var i int
		if _, err := fmt.Sscanf(string(p.Key), "own%04d", &i); err != nil {
			t.Fatalf("a retained scan key %q changed after Scan returned it", p.Key)
		}
		if !bytes.Equal(p.Value, valueOf(i)) {
			t.Fatalf("a retained scan value of key %d changed after Scan returned it", i)
		}
	}
}
